"""The true optimizers with exponentially decaying memory, in two
interchangeable implementations: a history-based evaluator that sums over all
past iterates, and an O(1)-state evaluator driven by exponential running sums
("momentum variables").

Every supported update rule is expressed through a common momentum form: a
list of slots, each an exponential average of a feature of the iterate
(gradient, squared gradient, the iterate itself), combined by an output map.
The same structure drives the memory-correction machinery in `correction`.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .core import (Kind, KSpec, OptimizerSpec, ParamVector,
                   RunConfig, Trajectory)
from .losses import LossModel, loss_from_config


class Feature(enum.Enum):
    GRAD = "grad"
    GRAD_SQ = "grad_sq"
    THETA = "theta"
    NEG_GRAD = "neg_grad"


@dataclass(frozen=True)
class Slot:
    """One momentum variable: bias(n) * sum_k beta^k feature(theta^(n-k)).

    bias(n) is either a constant or scale*(1-beta)/(1-beta^(n+1)), the
    n-dependent prefactor that makes the average unbiased on constant input.
    """

    feature: Feature
    beta: float
    bias_kind: str  # "const" | "bc"
    bias_value: float

    def bias(self, n: Optional[int]) -> float:
        if self.bias_kind == "const" or n is None:
            return self.bias_limit
        return self.bias_value * (1.0 - self.beta) / (1.0 - self.beta ** (n + 1))

    @property
    def bias_limit(self) -> float:
        if self.bias_kind == "const":
            return self.bias_value
        return self.bias_value * (1.0 - self.beta)

    def geometric_sum(self, n: Optional[int]) -> float:
        """sum_{k=0}^{n} beta^k; n None means the infinite limit."""
        if n is None:
            return 1.0 / (1.0 - self.beta)
        if self.beta == 0.0:
            return 1.0
        return (1.0 - self.beta ** (n + 1)) / (1.0 - self.beta)


class MomentumForm:
    """Slots plus the output map F = Q(m_1, ..., m_Q) for one optimizer kind."""

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        k = spec.kind
        b1, b2, lam = spec.beta1, spec.beta2, spec.lam
        if k is Kind.HEAVY_BALL:
            slots = [Slot(Feature.GRAD, b1, "const", 1.0)]
        elif k is Kind.NESTEROV:
            slots = [Slot(Feature.GRAD, b1, "const", b1),
                     Slot(Feature.GRAD, 0.0, "const", 1.0)]
        elif k is Kind.ADAMW:
            bias = "bc" if spec.bias_correction else "const"
            slots = [Slot(Feature.GRAD, b1, bias, 1.0),
                     Slot(Feature.GRAD_SQ, b2, bias, 1.0),
                     Slot(Feature.THETA, 0.0, "const", lam)]
        elif k is Kind.NADAMW:
            bias = "bc" if spec.bias_correction else "const"
            slots = [Slot(Feature.GRAD, b1, bias, 1.0),
                     Slot(Feature.GRAD_SQ, b2, bias, 1.0),
                     Slot(Feature.THETA, 0.0, "const", lam),
                     Slot(Feature.GRAD, 0.0, "const", 1.0)]
        elif k is Kind.LION_K:
            rho1, rho2 = b1, b2
            if spec.bias_correction:
                first = Slot(Feature.NEG_GRAD, rho2, "bc", rho1 / rho2)
            else:
                first = Slot(Feature.NEG_GRAD, rho2, "const", (1.0 - rho2) * rho1 / rho2)
            slots = [first,
                     Slot(Feature.NEG_GRAD, 0.0, "const", 1.0 - rho1 / rho2),
                     Slot(Feature.THETA, 0.0, "const", lam)]
        else:
            raise ValueError(f"unknown kind: {k}")
        self.slots = tuple(slots)
        # bias * geometric sum of each slot in the large-n limit
        self.limit_scales = tuple(s.bias_limit * s.geometric_sum(None) for s in self.slots)

    # -- features ----------------------------------------------------------

    def feature_values(self, theta: ParamVector, g: ParamVector) -> List[np.ndarray]:
        out = []
        for s in self.slots:
            if s.feature is Feature.GRAD:
                out.append(g)
            elif s.feature is Feature.GRAD_SQ:
                out.append(g * g)
            elif s.feature is Feature.THETA:
                out.append(theta)
            else:
                out.append(-g)
        return out

    def feature_jvp(self, loss: LossModel, theta: ParamVector, g: ParamVector,
                    index: int, v: ParamVector) -> np.ndarray:
        f = self.slots[index].feature
        return self._feature_jvp(f, g, v, None if f is Feature.THETA else loss.hvp(theta, v))

    @staticmethod
    def _feature_jvp(f: Feature, g: ParamVector, v: ParamVector, hv: np.ndarray) -> np.ndarray:
        """Directional derivative of feature f along v, given hv = hvp(theta, v)."""
        if f is Feature.GRAD:
            return hv
        if f is Feature.GRAD_SQ:
            return 2.0 * g * hv
        if f is Feature.THETA:
            return v
        return -hv

    # -- output map --------------------------------------------------------

    def kgrad(self, x: np.ndarray) -> np.ndarray:
        if self.spec.kspec is KSpec.HALF_SQUARED_TWO_NORM:
            return x
        return x / np.sqrt(x * x + self.spec.eps)

    def khess_diag(self, x: np.ndarray) -> np.ndarray:
        if self.spec.kspec is KSpec.HALF_SQUARED_TWO_NORM:
            return np.ones_like(x)
        return self.spec.eps / (x * x + self.spec.eps) ** 1.5

    def output(self, m: List[np.ndarray], exact_sign: bool = False) -> np.ndarray:
        k = self.spec.kind
        if k is Kind.HEAVY_BALL:
            return m[0]
        if k is Kind.NESTEROV:
            return m[0] + m[1]
        if k is Kind.ADAMW:
            return m[0] / np.sqrt(m[1] + self.spec.eps) + m[2]
        if k is Kind.NADAMW:
            b1 = self.spec.beta1
            num = b1 * m[0] + (1.0 - b1) * m[3]
            return num / np.sqrt(m[1] + self.spec.eps) + m[2]
        x = m[0] + m[1]
        if exact_sign:
            return -np.sign(-x) + m[2]
        return -self.kgrad(x) + m[2]

    def output_jac_apply(self, m: List[np.ndarray], us: List[np.ndarray]) -> np.ndarray:
        """sum_l (dQ/dm_l) u_l at the momentum point m."""
        k = self.spec.kind
        if k is Kind.HEAVY_BALL:
            return us[0]
        if k is Kind.NESTEROV:
            return us[0] + us[1]
        if k is Kind.ADAMW:
            den = np.sqrt(m[1] + self.spec.eps)
            return us[0] / den - m[0] * us[1] / (2.0 * den ** 3) + us[2]
        if k is Kind.NADAMW:
            b1 = self.spec.beta1
            den = np.sqrt(m[1] + self.spec.eps)
            num = b1 * m[0] + (1.0 - b1) * m[3]
            return (b1 * us[0] + (1.0 - b1) * us[3]) / den \
                - num * us[1] / (2.0 * den ** 3) + us[2]
        x = m[0] + m[1]
        return -self.khess_diag(x) * (us[0] + us[1]) + us[2]

    # -- contracted evaluation (all history arguments equal) ----------------

    def contracted_momenta(self, theta: ParamVector, g: ParamVector,
                           n: Optional[int]) -> List[np.ndarray]:
        feats = self.feature_values(theta, g)
        if n is None:
            scales = self.limit_scales
        else:
            scales = [s.bias(n) * s.geometric_sum(n) for s in self.slots]
        return [c * f for c, f in zip(scales, feats)]

    def contracted_F(self, loss: LossModel, theta: ParamVector,
                     n: Optional[int], g: Optional[ParamVector] = None) -> np.ndarray:
        """F^(n) with every history argument replaced by theta; n None => limit."""
        if g is None:
            g = loss.grad(theta)
        return self.output(self.contracted_momenta(theta, g, n))

    def limit_jvp(self, loss: LossModel, theta: ParamVector, g: ParamVector,
                  scales: Sequence[float]) -> np.ndarray:
        """sum_l (dQ/dm_l) scales_l J_l F at the large-n momenta m, where F = Q(m)
        is the large-n contracted update and J_l the Jacobian of slot l's
        feature; one hvp serves every slot.  With scales = limit_scales this is
        the Jacobian of the large-n contracted update applied to F."""
        m = self.contracted_momenta(theta, g, None)
        F = self.output(m)
        hv = loss.hvp(theta, F)
        us = [c * self._feature_jvp(s.feature, g, F, hv) for c, s in zip(scales, self.slots)]
        return self.output_jac_apply(m, us)

    def advance(self, sums: List[np.ndarray], theta: ParamVector, g: ParamVector,
                n: int, exact_sign: bool = False):
        """Step n of the raw exponential sums: returns (sums, F^(n))."""
        feats = self.feature_values(theta, g)
        sums = [s.beta * acc + f for s, acc, f in zip(self.slots, sums, feats)]
        m = [s.bias(n) * acc for s, acc in zip(self.slots, sums)]
        return sums, self.output(m, exact_sign=exact_sign)


@functools.lru_cache(maxsize=64)
def momentum_form(spec: OptimizerSpec) -> MomentumForm:
    """The form of spec, built once per distinct spec."""
    return MomentumForm(spec)


@dataclass(eq=False)
class HistoryBuffer:
    """Append-only list of accepted iterates theta^(0)..theta^(n)."""

    iterates: List[np.ndarray] = field(default_factory=list)
    k_trunc: Optional[int] = None  # optional truncation horizon; bias <= (max beta)^k_trunc

    def append(self, theta: ParamVector) -> None:
        self.iterates.append(np.array(theta, dtype=np.float64, copy=True))

    def __len__(self) -> int:
        return len(self.iterates)


@dataclass(eq=False)
class MomentumState:
    """Raw exponential sums s_l^(n+1) = sum_k beta_l^k f_l(theta^(n-k)) plus the step counter.

    The momentum variables are m_l = bias_l(n) * s_l; keeping the sums raw
    makes the state/history equivalence exact.
    """

    sums: List[np.ndarray]
    n: int = 0  # number of completed steps

    @classmethod
    def fresh(cls, form: MomentumForm, d: int) -> "MomentumState":
        return cls(sums=[np.zeros(d) for _ in form.slots], n=0)


def eval_F_history(spec: OptimizerSpec, loss: LossModel, hist: HistoryBuffer,
                   exact_sign: bool = False) -> ParamVector:
    """Update direction at step n from the full history, by explicit summation."""
    if len(hist) == 0:
        raise ValueError("empty history")
    form = momentum_form(spec)
    n = len(hist) - 1
    start = 0 if hist.k_trunc is None else max(0, n - hist.k_trunc)
    d = hist.iterates[-1].size
    sums = [np.zeros(d) for _ in form.slots]
    for k in range(start, n + 1):
        theta_k = hist.iterates[k]
        g_k = loss.grad(theta_k)
        feats = form.feature_values(theta_k, g_k)
        for l, s in enumerate(form.slots):
            w = s.beta ** (n - k)  # 0**0 == 1 covers the memoryless slots
            if w != 0.0:
                sums[l] = sums[l] + w * feats[l]
    m = [s.bias(n) * acc for s, acc in zip(form.slots, sums)]
    return form.output(m, exact_sign=exact_sign)


def step_state(spec: OptimizerSpec, loss: LossModel, state: MomentumState,
               theta: ParamVector, exact_sign: bool = False):
    """One O(1)-state step: returns (theta_next, state_next); bitwise deterministic."""
    n = state.n
    sums, F = momentum_form(spec).advance(state.sums, theta, loss.grad(theta), n, exact_sign)
    return theta - spec.h * F, MomentumState(sums=sums, n=n + 1)


def drive(config: RunConfig, loss: LossModel,
          step: Callable[[ParamVector, int], ParamVector], meta: dict) -> Trajectory:
    """floor(T/h) steps theta^(n+1) = step(theta^(n), n) from theta^(0),
    recording every iterate and its loss.  The run stops early, recording the
    step in domain_exit, at an iterate outside the loss domain (step n) or a
    non-finite one (step n+1, not recorded)."""
    theta = config.initial_theta()
    iterates = [theta]
    losses = [loss.value(theta)]
    exit_step = None
    for n in range(config.n_steps()):
        if not loss.in_domain(theta):
            exit_step = n
            break
        theta = step(theta, n)
        if not np.isfinite(theta).all():
            exit_step = n + 1
            break
        iterates.append(theta)
        losses.append(loss.value(theta))
    return Trajectory(iterates=np.array(iterates), h=config.optimizer.h, T=config.horizon,
                      loss_values=np.array(losses), domain_exit=exit_step, meta=meta)


def run_memoryful(config: RunConfig, loss: Optional[LossModel] = None,
                  engine: str = "state", exact_sign: bool = False) -> Trajectory:
    """Run floor(T/h) steps from theta^(0), recording every iterate.

    engine "state" uses the O(1) momentum-state evaluator; "history" recomputes
    the update direction by explicit summation over all recorded iterates at
    every step (the cross-check implementation, O(n^2) overall).
    """
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    spec = config.optimizer

    if engine == "state":
        state = MomentumState.fresh(momentum_form(spec), config.dimension)

        def step(theta, n):
            nonlocal state
            theta, state = step_state(spec, loss, state, theta, exact_sign=exact_sign)
            return theta
    elif engine == "history":
        hist = HistoryBuffer()

        def step(theta, n):
            hist.append(theta)
            return theta - spec.h * eval_F_history(spec, loss, hist, exact_sign=exact_sign)
    else:
        raise ValueError(f"unknown engine: {engine!r}")

    return drive(config, loss, step, {"engine": engine, "kind": spec.kind.value})
