"""The true optimizers with exponentially decaying memory, evaluated in O(1)
state per step from exponential running sums ("momentum variables"), and the
one trajectory driver that every memoryful and memoryless run goes through.

Every supported update rule is expressed through a common momentum form: a
list of slots, each an exponential average of a feature of the iterate
(gradient, squared gradient, the iterate itself), combined by an output map.
The same structure drives the memory-correction machinery in `correction`.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (Kind, KSpec, OptimizerSpec, ParamVector,
                   RunConfig, Trajectory, floor_steps)
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
        # bias * sum_k k beta^k of each slot in the large-n limit: the lag
        # weights of the large-n memory correction
        self.lag_scales = tuple(s.bias_limit * s.beta / (1.0 - s.beta) ** 2 for s in self.slots)

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

    def output(self, m: List[np.ndarray]) -> np.ndarray:
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
        return -self.kgrad(m[0] + m[1]) + m[2]

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
                  scales: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """(F, sum_l (dQ/dm_l) scales_l J_l F) at the large-n momenta m, where
        F = Q(m) is the large-n contracted update and J_l the Jacobian of slot
        l's feature; one hvp serves every slot.  The second term is linear in
        scales; with scales = limit_scales it is the Jacobian of the large-n
        contracted update applied to F."""
        m = self.contracted_momenta(theta, g, None)
        F = self.output(m)
        hv = loss.hvp(theta, F)
        us = [c * self._feature_jvp(s.feature, g, F, hv) for c, s in zip(scales, self.slots)]
        return F, self.output_jac_apply(m, us)

    def advance(self, sums: List[np.ndarray], theta: ParamVector, g: ParamVector, n: int):
        """Step n of the raw exponential sums: returns (sums, F^(n))."""
        feats = self.feature_values(theta, g)
        sums = [s.beta * acc + f for s, acc, f in zip(self.slots, sums, feats)]
        m = [s.bias(n) * acc for s, acc in zip(self.slots, sums)]
        return sums, self.output(m)


def momentum_form(spec: OptimizerSpec) -> MomentumForm:
    """The form of spec, built once per distinct spec up to h, which no form
    reads (so a stack's spec, whose h is a column, shares the form)."""
    return _form(spec.kind, spec.beta1, spec.beta2, spec.lam, spec.eps, spec.kspec,
                 spec.bias_correction)


@functools.lru_cache(maxsize=64)
def _form(*fields) -> MomentumForm:
    kind, *rest = fields
    return MomentumForm(OptimizerSpec(kind, 1.0, *rest))


@dataclass(eq=False)
class MomentumState:
    """Raw exponential sums s_l^(n+1) = sum_k beta_l^k f_l(theta^(n-k)) plus the step counter.

    The momentum variables are m_l = bias_l(n) * s_l; keeping the sums raw
    makes the state/history equivalence exact.  Each sum has the shape of
    theta: (d,) for one run, (B, d) for a stack.
    """

    sums: List[np.ndarray]
    n: int = 0  # number of completed steps

    @classmethod
    def fresh(cls, form: MomentumForm, shape) -> "MomentumState":
        return cls(sums=[np.zeros(shape) for _ in form.slots], n=0)


def step_state(spec: OptimizerSpec, loss: LossModel, state: MomentumState,
               theta: ParamVector):
    """One O(1)-state step: returns (theta_next, state_next); bitwise deterministic.
    Row-wise over a (B, d) stack whose spec.h is a (B, 1) column."""
    n = state.n
    sums, F = momentum_form(spec).advance(state.sums, theta, loss.grad(theta), n)
    return theta - spec.h * F, MomentumState(sums=sums, n=n + 1)


def stack_spec(spec: OptimizerSpec, hs: Optional[Sequence[float]]) -> OptimizerSpec:
    """spec with h the (B, 1) column of step sizes hs (None: spec.h alone)."""
    return spec.with_h(np.array([spec.h] if hs is None else hs,
                                dtype=np.float64).reshape(-1, 1))


def drive(config: RunConfig, loss: LossModel, step: Callable[[np.ndarray, int], np.ndarray],
          meta: dict, hs: Optional[Sequence[float]] = None,
          keep: Optional[Callable[[np.ndarray], None]] = None):
    """Runs theta^(n+1) = step(theta^(n), n) from theta^(0) for a (B, d) stack
    of rows that share the step index n and differ in h, recording every
    iterate.  Without hs, the one run at config.optimizer.h (B = 1) is
    returned as a Trajectory; with hs, a list with one Trajectory per h.

    Row i makes floor(T/h_i) steps.  It stops early, recording the step in
    domain_exit, at an iterate outside the loss domain (step n) or a
    non-finite one (step n+1, not recorded).  A row that finishes or exits
    leaves the stack, so the step never sees it again; keep(mask) is then
    called with the boolean mask of the rows that stay, for a step that holds
    per-row data (its h column, momentum sums) to drop the others.  One
    reduction per step serves both checks on the common path: max |theta| is
    NaN or inf exactly when some row is not finite."""
    single = hs is None
    hs = [config.optimizer.h] if single else [float(h) for h in hs]
    theta = config.initial_theta()
    d = theta.size
    ends = np.array([floor_steps(config.horizon, h) for h in hs])
    exits: List[Optional[int]] = [None] * len(hs)
    pieces: List[List[np.ndarray]] = [[] for _ in hs]
    rows = np.arange(len(hs))
    theta = np.repeat(theta[None, :], len(hs), axis=0)
    radius = loss.domain_radius
    segment = [theta]  # recorded iterates since the set of rows last changed

    def leave(stay):
        nonlocal rows, segment, theta
        if segment:
            block = np.stack(segment)
            for p, i in enumerate(rows):
                pieces[i].append(block[:, p])
        rows, segment, theta = rows[stay], [], theta[stay]
        if rows.size and keep is not None:
            keep(stay)

    n = 0
    check = True  # whether a row may finish or sit outside the domain at n
    while rows.size:
        if check:
            done = ends[rows] == n
            outside = ~done & ~(np.abs(theta).max(axis=1) < radius)
            for i in rows[outside]:
                exits[i] = n
            stay = ~(done | outside)
            if not stay.all():
                leave(stay)
                if not rows.size:
                    break
            next_end = int(ends[rows].min())
        theta = step(theta, n)
        n += 1
        check = n == next_end
        if not np.abs(theta).max() < radius:
            theta = np.reshape(theta, (rows.size, d))
            finite = np.isfinite(theta).all(axis=1)
            for i in rows[~finite]:
                exits[i] = n
            if not finite.all():
                leave(finite)
            check = True
        segment.append(theta)
    trajectories = [Trajectory(iterates=np.concatenate(p), h=h, T=config.horizon,
                               value=loss.value, domain_exit=e, meta=dict(meta))
                    for p, h, e in zip(pieces, hs, exits)]
    return trajectories[0] if single else trajectories


def run_memoryful(config: RunConfig, loss: Optional[LossModel] = None,
                  hs: Optional[Sequence[float]] = None):
    """Run floor(T/h) steps of the O(1) momentum-state engine from theta^(0),
    recording every iterate: one Trajectory at config.optimizer.h, or with
    hs one per step size, stepped in lockstep as one stack."""
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    spec = stack_spec(config.optimizer, hs)
    state = MomentumState.fresh(momentum_form(spec), (spec.h.shape[0], config.dimension))

    def step(theta, n):
        nonlocal state
        theta, state = step_state(spec, loss, state, theta)
        return theta

    def keep(stay):
        nonlocal spec, state
        spec = spec.with_h(spec.h[stay])
        state = MomentumState(sums=[s[stay] for s in state.sums], n=state.n)

    return drive(config, loss, step, {"kind": spec.kind.value}, hs, keep)
