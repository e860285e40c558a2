"""Independent cross-check implementations that the tests compare memlens
against: the history engine that sums over every past iterate, hand-written
componentwise memoryless steps, the hand-derived closed-form corrections of
the adaptive and sign-momentum kinds, a literal decaying double sum, the
equal-momentum identity of the adaptive and sign-momentum corrections, the
large-n mean drift of the mini-batch correction and its per-ordering
evaluation, and a modified-equation field built from central differences.
Also the inf-norm distance the tests measure with.
"""
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from memlens.core import (Kind, KSpec, OptimizerSpec, ParamVector, RunConfig, Trajectory,
                          as_param_vector, softsign)
from memlens.correction import correction_closed
from memlens.losses import LossModel, MiniBatchFamily, loss_from_config
from memlens.memoryful import drive, momentum_form
from memlens.minibatch import batch_pair_expectations


def linf_distance(a: ParamVector, b: ParamVector) -> float:
    """max_i |a_i - b_i|; lengths must agree."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


# -- the history engine -------------------------------------------------------


@dataclass(eq=False)
class HistoryBuffer:
    """Append-only list of accepted iterates theta^(0)..theta^(n)."""

    iterates: List[np.ndarray] = field(default_factory=list)
    k_trunc: Optional[int] = None  # optional truncation horizon; bias <= (max beta)^k_trunc

    def append(self, theta: ParamVector) -> None:
        self.iterates.append(np.array(theta, dtype=np.float64, copy=True))

    def __len__(self) -> int:
        return len(self.iterates)


def eval_F_history(spec: OptimizerSpec, loss: LossModel, hist: HistoryBuffer) -> ParamVector:
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
    return form.output(m)


def run_history(config: RunConfig, loss: Optional[LossModel] = None) -> Trajectory:
    """run_memoryful with the update direction recomputed by explicit
    summation over all recorded iterates at every step (O(n^2) overall)."""
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    spec = config.optimizer
    hist = HistoryBuffer()

    def step(theta, n):
        hist.append(theta)
        return theta - spec.h * eval_F_history(spec, loss, hist)

    return drive(config, loss, step, {"kind": spec.kind.value})


# -- hand-specialized memoryless updates ----------------------------------------


def adamw_memoryless_reference(spec: OptimizerSpec, loss: LossModel,
                               theta: ParamVector, n: int) -> ParamVector:
    """Second-order adaptive step written out componentwise, as an
    independent check on the generic route (requires bias correction)."""
    if spec.kind is not Kind.ADAMW or not spec.bias_correction:
        raise ValueError("reference update is for bias-corrected adamw")
    theta = as_param_vector(theta)
    h, eps, lam = spec.h, spec.eps, spec.lam
    b1, b2 = spec.beta1, spec.beta2
    g = loss.grad(theta)
    den2 = g * g + eps
    den = np.sqrt(den2)
    F = g / den + lam * theta
    direction = loss.hvp(theta, softsign(g, eps) + lam * theta)

    def lag(beta):
        if beta == 0.0:
            return 0.0
        return beta / (1.0 - beta) - (n + 1) * beta ** (n + 1) / (1.0 - beta ** (n + 1))

    M = -h * lag(b2) * (g * g) * direction / den2 ** 1.5 + h * lag(b1) * direction / den
    return theta - h * F - h * M


def lion_eps_memoryless_reference(spec: OptimizerSpec, loss: LossModel,
                                  theta: ParamVector, n: int) -> ParamVector:
    """Second-order smoothed sign-momentum step written out componentwise
    (bias-corrected variant)."""
    if spec.kind is not Kind.LION_K or not spec.bias_correction:
        raise ValueError("reference update is for the bias-corrected smoothed lion")
    theta = as_param_vector(theta)
    h, eps, lam = spec.h, spec.eps, spec.lam
    r1, r2 = spec.beta1, spec.beta2
    g = loss.grad(theta)
    den2 = g * g + eps
    F = g / np.sqrt(den2) + lam * theta
    coef = r1 / (1.0 - r2) - (n + 1) * r2 ** n * r1 / (1.0 - r2 ** (n + 1))
    grad_of_penalty = loss.hvp(theta, softsign(g, eps) + lam * theta)
    M = h * coef * eps / den2 ** 1.5 * grad_of_penalty
    return theta - h * F - h * M


# -- corrections ----------------------------------------------------------------


def decaying_double_sum(rho1: float, rho2: float, n: int) -> float:
    """sum_{k=1}^{n} rho2^(k-1) sum_{s=n-k}^{n-1} rho1 rho2^s, evaluated with
    the inner sum in closed form; tends to 0 as n grows."""
    if n <= 0:
        return 0.0
    total = 0.0
    for k in range(1, n + 1):
        inner = rho1 * rho2 ** (n - k) * (1.0 - rho2 ** k) / (1.0 - rho2)
        total += rho2 ** (k - 1) * inner
    return total


@functools.lru_cache(maxsize=None)
def _ema_lag_coefficient(beta: float, n: Optional[int]) -> float:
    """bias(n) * sum_{k=1}^{n} k beta^k for a bias-corrected average, i.e.
    sum_{k<=n} k beta^k / sum_{i<=n} beta^i, summed in exact integers from
    the float beta = m / q and rounded once; limit beta/(1-beta).  (The
    closed form beta/(1-beta) - (n+1) beta^(n+1)/(1-beta^(n+1)) cancels at
    small n: by 2.9e-11 relative at beta = 0.999, n = 1.)"""
    if beta == 0.0:
        return 0.0
    if n is None:
        return beta / (1.0 - beta)
    m, q = beta.as_integer_ratio()
    num, den, mk = 0, 1, 1
    for k in range(1, n + 1):
        mk *= m
        num, den = num * q + k * mk, den * q + mk
    return float(Fraction(num, den))


def correction_closed_adamw(spec: OptimizerSpec, loss: LossModel,
                            theta: ParamVector, n: Optional[int] = None) -> np.ndarray:
    """Componentwise closed-form correction of the adaptive kinds, derived by
    hand: two momentum lag coefficients, one hvp.  With bias-corrected
    averages every inner contracted update equals F, so the form is exact at
    every n; NAdamW weights the first average's lag by beta1, the share it
    has in the numerator.  Row-wise over a (B, d) stack."""
    if not spec.bias_correction:
        raise ValueError("closed form assumes bias-corrected averages")
    eps = spec.eps
    g = loss.grad(theta)
    den2 = g * g + eps
    den = np.sqrt(den2)
    direction = loss.hvp(theta, g / den + spec.lam * theta)
    a1 = _ema_lag_coefficient(spec.beta1, n)
    if spec.kind is Kind.NADAMW:
        a1 = spec.beta1 * a1
    a2 = _ema_lag_coefficient(spec.beta2, n)
    return spec.h * (a1 - a2 + eps * a2 / den2) * direction / den


def correction_closed_lionk(spec: OptimizerSpec, loss: LossModel,
                            theta: ParamVector, n: Optional[int] = None) -> np.ndarray:
    """Closed-form correction of the sign-momentum family, derived by hand, in
    the large-n limit and (with bias-corrected averages) at finite n:
    -h * coef * K''(-grad) * hvp(theta, K'(-grad) - lam*theta).  Without bias
    correction there is no finite-n closed form.  Row-wise over a (B, d)
    stack."""
    if n is not None and not spec.bias_correction:
        raise ValueError("finite-n closed form assumes bias-corrected averages")
    rho1, rho2 = spec.beta1, spec.beta2
    # bias_value rho1/rho2 of the bias-corrected first slot times its lag
    coef = rho1 / (1.0 - rho2) if n is None else rho1 / rho2 * _ema_lag_coefficient(rho2, n)
    form = momentum_form(spec)
    g = loss.grad(theta)
    kg = form.kgrad(-g)
    # K's Hessian diagonal: 1 for the half squared two-norm, else eps / (g^2 + eps)^1.5
    khess = (1.0 if spec.kspec is KSpec.HALF_SQUARED_TWO_NORM
             else spec.eps / (g * g + spec.eps) ** 1.5)
    return -spec.h * coef * khess * loss.hvp(theta, kg - spec.lam * theta)


def correction_signum_adam_identity_check(beta: float, loss: LossModel,
                                          theta: ParamVector, eps: float,
                                          lam: float = 0.0, h: float = 1e-3) -> float:
    """Relative gap between the large-n corrections correction_closed gives the
    adaptive update with equal momentum parameters and the sign-momentum
    update with the same pair.  Zero up to rounding."""
    theta = as_param_vector(theta)
    if beta == 0.0:
        # both corrections vanish identically
        return 0.0
    adam = OptimizerSpec.adamw(h=h, beta1=beta, beta2=beta, lam=lam, eps=eps)
    lion = OptimizerSpec.signum(h=h, beta=beta, lam=lam, eps=eps)
    ca = correction_closed(adam, loss, theta, None).vector
    cl = correction_closed(lion, loss, theta, None).vector
    scale = max(float(np.max(np.abs(ca))), float(np.max(np.abs(cl))))
    if scale == 0.0:
        return 0.0
    return linf_distance(ca, cl) / scale


def expected_drift_largen(family: MiniBatchFamily, beta: float, theta: ParamVector,
                          h: float) -> np.ndarray:
    """Large-n mean memoryless update: mean gradient / (1-beta) plus the
    averaged correction split into full-batch drift and noise parts.  Its
    (1-beta) multiple is the gradient of modified_loss_minibatch."""
    theta = as_param_vector(theta)
    gbar = family.mean.grad(theta)
    e_eq, _ = batch_pair_expectations(family, theta)
    full_drift = family.mean.hvp(theta, gbar)
    noise_part = e_eq - full_drift
    c = h * (beta / (1.0 - beta) ** 3 * full_drift
             + beta / ((1.0 - beta) ** 2 * (1.0 + beta)) * noise_part)
    return gbar / (1.0 - beta) + c


def _correction_for_order(family: MiniBatchFamily, beta: float, theta: ParamVector,
                          h: float, order) -> np.ndarray:
    """Correction vector for one epoch ordering, via prefix sums over the
    contracted per-step updates."""
    n = family.size - 1
    G = [family.batches[i].grad(theta) for i in range(family.size)]
    # contracted update at inner step s under this ordering
    F = np.zeros_like(theta)
    prefix = [np.zeros_like(theta)]
    for s in range(n):
        F = G[order[s]] + beta * F
        prefix.append(prefix[-1] + F)
    c = np.zeros_like(theta)
    for k in range(n):
        S_k = prefix[n] - prefix[n - 1 - k]
        c = c + beta ** k * family.batches[order[n - 1 - k]].hvp(theta, S_k)
    return h * beta * c


# -- modified equation ------------------------------------------------------------


def fd_modified_ode(spec: OptimizerSpec, loss: LossModel, fd_step: float = 1e-6) -> Callable:
    """The field theta -> (G1, G2) of the modified equation assembled term by
    term: c from correction_closed and grad(G1) G1 by central differences of
    the large-n contracted update."""
    form = momentum_form(spec)

    def F_limit(theta):
        return form.contracted_F(loss, theta, None)

    def field(theta):
        F = F_limit(theta)
        # grad(G1) G1 = grad(F) F since G1 = -F
        jac = (F_limit(theta + fd_step * F) - F_limit(theta - fd_step * F)) / (2.0 * fd_step)
        c = correction_closed(spec, loss, theta, None).vector
        return -F, -(c / spec.h + 0.5 * jac)

    return field
