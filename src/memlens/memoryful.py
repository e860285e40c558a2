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
        # whether the contracted update F^(n) is the same at every n: true when
        # every slot with memory is bias-corrected, since its bias(n) then
        # cancels its geometric sum
        self.n_independent = all(s.bias_kind == "bc" for s in self.slots if s.beta > 0.0)

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

    # -- output map --------------------------------------------------------

    def kgrad(self, x: np.ndarray) -> np.ndarray:
        if self.spec.kspec is KSpec.HALF_SQUARED_TWO_NORM:
            return x
        return x / np.sqrt(x * x + self.spec.eps)

    def khess_diag(self, x: np.ndarray) -> np.ndarray:
        if self.spec.kspec is KSpec.HALF_SQUARED_TWO_NORM:
            return np.ones_like(x)
        return self.spec.eps / (x * x + self.spec.eps) ** 1.5

    def numerator(self, x: Sequence) -> np.ndarray:
        """The adaptive kinds' numerator, linear in the gradient slots: x_0 for
        AdamW, beta1 x_0 + (1-beta1) x_3 for NAdamW."""
        if self.spec.kind is Kind.ADAMW:
            return x[0]
        b1 = self.spec.beta1
        return b1 * x[0] + (1.0 - b1) * x[3]

    def output(self, m: List[np.ndarray]) -> np.ndarray:
        k = self.spec.kind
        if k is Kind.HEAVY_BALL:
            return m[0]
        if k is Kind.NESTEROV:
            return m[0] + m[1]
        if k in (Kind.ADAMW, Kind.NADAMW):
            return self.numerator(m) / np.sqrt(m[1] + self.spec.eps) + m[2]
        return -self.kgrad(m[0] + m[1]) + m[2]

    # -- contracted evaluation (all history arguments equal) ----------------

    def contracted_momenta(self, theta: ParamVector, g: ParamVector,
                           n: Optional[int]) -> List[np.ndarray]:
        return [c * f for c, f in zip(self.scales(n), self.feature_values(theta, g))]

    def scales(self, n: Optional[int]) -> Tuple[float, ...]:
        """bias_l(n) * sum_{k=0}^{n} beta_l^k per slot, the coefficient of
        slot l's feature in its contracted momentum; n None gives limit_scales."""
        if n is None:
            return self.limit_scales
        return tuple(s.bias(n) * s.geometric_sum(n) for s in self.slots)

    def contracted_F(self, loss: LossModel, theta: ParamVector,
                     n: Optional[int], g: Optional[ParamVector] = None) -> np.ndarray:
        """F^(n) with every history argument replaced by theta; n None => limit."""
        if g is None:
            g = loss.grad(theta)
        return self.output(self.contracted_momenta(theta, g, n))

    def lag_weights(self, n: Optional[int]) -> Tuple[float, ...]:
        """bias_l(n) * sum_{k=1}^{n} k beta_l^k per slot, the weights of the
        memory correction when every inner update is the same F; n None gives
        lag_scales.  At finite n only for an n-independent form, whose slots
        with memory are bias-corrected: bias_value times _mean_lag(beta, n)."""
        if n is None:
            return self.lag_scales
        if not self.n_independent:
            raise ValueError("finite-n lag weights need an update that does not depend on n")
        return tuple(0.0 if s.beta == 0.0 else s.bias_value * _mean_lag(s.beta, n)
                     for s in self.slots)

    def combined_weights(self, c: Sequence, w: Sequence):
        """The slot weights w (floats, (K,) arrays or (B, 1) columns) as
        slot_jvp combines them at momenta with scales c, before any vector
        arithmetic: for the adaptive kinds (p(w), lead) with p the numerator
        and lead = p(c_1 w - w_1 c), to which a gradient slot with the
        denominator slot's weight and scale (beta1 = beta2) adds exactly 0;
        for every other kind the one sum of the gradient-slot weights."""
        k = self.spec.kind
        if k in (Kind.ADAMW, Kind.NADAMW):
            return self.numerator(w), self.numerator([wl * c[1] - w[1] * cl
                                                      for wl, cl in zip(w, c)])
        return w[0] if k is Kind.HEAVY_BALL else w[0] + w[1]

    def slot_jvp(self, loss: LossModel, theta: ParamVector, g: ParamVector,
                 m: List[np.ndarray], c: Sequence[float], weights, V: np.ndarray) -> np.ndarray:
        """sum_l (dQ/dm_l) J_l W_l at the momenta m = c * features, with J_l
        the Jacobian of slot l's feature and W_l its window: weights[l] * V for
        one window (weights Q floats), sum_k weights[k, l] V[k] for K windows
        (weights a (K, Q) array); row-wise over a (B, d) stack.  The scalar
        weights are combined before any vector arithmetic (combined_weights),
        so the slots share one hvp (two for K windows of an adaptive kind).
        There, with p the numerator and den^2 = m_1 + eps, the term is
        (H(sum_k lead_k V_k) g^2 + eps H(sum_k p(w_k) V_k)) / den^3 + W_2 with
        lead_k = c_1 p(w_k) - p(c) w_k1, exactly 0 for AdamW at beta1 = beta2,
        where the chain rule's O(1) numerator and denominator terms would
        cancel to O(eps / den^2) (for NAdamW only its plain-gradient term
        remains)."""
        one = not isinstance(weights, np.ndarray)
        w = weights if one else weights.T
        k = self.spec.kind
        if k in (Kind.ADAMW, Kind.NADAMW):
            eps = self.spec.eps
            pw, lead = self.combined_weights(c, w)
            den2 = m[1] + eps
            if one:
                return loss.hvp(theta, V) * (lead * (g * g) + pw * eps) \
                    / (den2 * np.sqrt(den2)) + w[2] * V
            return (loss.hvp(theta, np.tensordot(lead, V, 1)) * (g * g)
                    + eps * loss.hvp(theta, np.tensordot(pw, V, 1))) \
                / (den2 * np.sqrt(den2)) + np.tensordot(w[2], V, 1)
        s = self.combined_weights(c, w)
        hv = s * loss.hvp(theta, V) if one else loss.hvp(theta, np.tensordot(s, V, 1))
        if k is Kind.LION_K:
            # Q = -kgrad(m_0 + m_1) + m_2, with -grad features in m_0, m_1
            return self.khess_diag(m[0] + m[1]) * hv \
                + (w[2] * V if one else np.tensordot(w[2], V, 1))
        return hv

    def limit_jvp(self, loss: LossModel, theta: ParamVector, g: ParamVector,
                  weights: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """(F, slot_jvp with the one window F and the given weights) at the
        large-n momenta, where F is the large-n contracted update: one hvp.
        The second term is linear in the weights; with weights = limit_scales
        it is the Jacobian of the large-n contracted update applied to F."""
        return self.limit_pass(weights)(loss, theta, g)

    def limit_pass(self, weights: Sequence) -> Callable:
        """limit_jvp at fixed weights (floats, or (B, 1) columns for per-row
        weights over a (B, d) stack) as a function of (loss, theta, g).  The
        kind and the scalar weight algebra are resolved here, once; a call
        computes each vector intermediate once, F with the operations of
        output(contracted_momenta(theta, g, None)), so bitwise."""
        c, w, k = self.limit_scales, weights, self.spec.kind
        if k in (Kind.ADAMW, Kind.NADAMW):
            # c[-1] is NAdamW's plain-gradient slot
            eps, b1, c0, c1, c2, c3, w2 = self.spec.eps, self.spec.beta1, *c[:3], c[-1], w[2]
            pw, lead = self.combined_weights(c, w)
            pw_eps, nadam = pw * eps, k is Kind.NADAMW

            def adaptive(loss, theta, g):
                gg = g * g
                den2 = c1 * gg + eps
                den = np.sqrt(den2)
                p = b1 * (c0 * g) + (1.0 - b1) * (c3 * g) if nadam else c0 * g
                F = p / den + c2 * theta
                return F, loss.hvp(theta, F) * (lead * gg + pw_eps) / (den2 * den) + w2 * F
            return adaptive
        s = self.combined_weights(c, w)
        if k is Kind.LION_K:
            # the -grad features of m_0 and m_1 folded into their scales, exactly
            n0, n1, c2, w2, eps = -c[0], -c[1], c[2], w[2], self.spec.eps
            smooth = self.spec.kspec is not KSpec.HALF_SQUARED_TWO_NORM

            def lion(loss, theta, g):
                x = n0 * g + n1 * g
                if not smooth:  # kgrad(x) = x and khess_diag(x) = 1
                    F = c2 * theta - x
                    return F, s * loss.hvp(theta, F) + w2 * F
                q = x * x + eps
                F = c2 * theta - x / np.sqrt(q)
                return F, eps / q ** 1.5 * (s * loss.hvp(theta, F)) + w2 * F
            return lion
        c0, c1, nesterov = c[0], c[-1], k is Kind.NESTEROV

        def momentum(loss, theta, g):
            F = c0 * g + c1 * g if nesterov else c0 * g
            return F, s * loss.hvp(theta, F)
        return momentum

    def advance(self, sums: List[np.ndarray], theta: ParamVector, g: ParamVector, n: int):
        """Step n of the raw exponential sums: returns (sums, F^(n))."""
        feats = self.feature_values(theta, g)
        sums = [s.beta * acc + f for s, acc, f in zip(self.slots, sums, feats)]
        m = [s.bias(n) * acc for s, acc in zip(self.slots, sums)]
        return sums, self.output(m)


def _mean_lag(beta: float, n: int) -> float:
    """sum_{k<=n} k beta^k / sum_{i<=n} beta^i.  Algebraically head - tail
    with head = beta/(1-beta) and tail = (n+1) beta^(n+1)/(1-beta^(n+1)),
    which costs O(1) and loses at most one bit while tail <= head/2, i.e.
    for n beyond about 1.26/(1-beta).  Below that it is evaluated as the
    quotient of the two positive sums, which cancels nothing."""
    head = beta / (1.0 - beta)
    tail = (n + 1) * beta ** (n + 1) / (1.0 - beta ** (n + 1))
    if tail <= 0.5 * head:
        return head - tail
    k = np.arange(n + 1, dtype=np.float64)
    p = beta ** k
    return float(np.sum(k * p) / np.sum(p))


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
    if hs is not None and len(hs) == 0:
        raise ValueError("h_grid is empty")
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
