"""Memory-correction terms: the linear-in-h vector added to a contracted
update so that the memoryless iteration tracks the memoryful one to second
order.

Three evaluation routes are provided and cross-checked:
  * brute force  - the literal double sum over lag k and inner step s,
                   with prefix sums making it O(n) per evaluation;
  * contraction  - the same sum reassociated through the momentum slots so
                   each slot costs one Jacobian-vector product, with every
                   inner update in one array evaluation;
  * closed forms - O(1) formulas: the heavy-ball bracket, the adaptive form
                   (AdamW and NAdamW) and the sign-momentum form, at finite n
                   with bias-corrected averages and in the large-n limit, and
                   for every other kind the large-n limit of the contraction,
                   derived from the momentum form.  correction_closed falls
                   back to the contraction only at finite n.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Kind, OptimizerSpec, ParamVector, as_param_vector
from .losses import LossModel
from .memoryful import MomentumForm, momentum_form


class Method(enum.Enum):
    BRUTE_FORCE = "bruteforce"
    CONTRACTION = "contraction"
    CLOSED_FORM_ASYMPTOTIC = "closed-asymptotic"
    CLOSED_FORM_FINITE_N = "closed-finite-n"


@dataclass(eq=False)
class CorrectionTerm:
    vector: np.ndarray
    n: Optional[int]  # None means the large-n limit
    method: Method
    meta: dict = field(default_factory=dict)
    # loss.grad(theta) as the route evaluated it, so a memoryless step pays no
    # second grad (every route of correction_closed sets it; the brute-force
    # reference does not)
    grad: Optional[np.ndarray] = None


def _prefix_contracted(form: MomentumForm, theta: ParamVector, g: ParamVector,
                       n: int) -> np.ndarray:
    """P[j] = sum over steps s < j of the contracted update F^(s)(theta), with
    shape (n + 1,) + theta.shape: (n + 1, d) for one point, (n + 1, B, d)
    for a stack.

    Every F^(s), s < n, comes from one array evaluation: slot l's contracted
    momentum at step s is a coefficient c_l(s) times the slot's feature, and
    every output map is elementwise, so it applies to (n,) + theta.shape momenta."""
    s = np.arange(n)
    lead = (n,) + (1,) * np.ndim(theta)
    m = [np.broadcast_to(slot.bias(s) * slot.geometric_sum(s), (n,)).reshape(lead) * f
         for slot, f in zip(form.slots, form.feature_values(theta, g))]
    P = np.zeros((n + 1,) + np.shape(theta))
    np.cumsum(form.output(m), axis=0, out=P[1:])
    return P


def correction_bruteforce(spec: OptimizerSpec, loss: LossModel,
                          theta: ParamVector, n: int) -> CorrectionTerm:
    """Literal evaluation of the correction double sum at step n, all arguments
    frozen at theta.  Inner sums use the step-s bias coefficients, and the
    prefix sums are built step by step, independently of _prefix_contracted."""
    theta = as_param_vector(theta)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return CorrectionTerm(np.zeros(theta.size), 0, Method.BRUTE_FORCE)
    form = momentum_form(spec)
    g = loss.grad(theta)
    P = np.zeros((n + 1, theta.size))
    np.cumsum([form.contracted_F(loss, theta, s, g) for s in range(n)], axis=0, out=P[1:])
    m_top = form.contracted_momenta(theta, g, n)
    zeros = np.zeros(theta.size)
    c = np.zeros(theta.size)
    for k in range(1, n + 1):
        v_k = P[n] - P[n - k]
        us = []
        for l, slot in enumerate(form.slots):
            w = slot.beta ** k
            if w == 0.0:
                us.append(zeros)
            else:
                us.append(slot.bias(n) * w * form.feature_jvp(loss, theta, g, l, v_k))
        c = c + form.output_jac_apply(m_top, us)
    return CorrectionTerm(spec.h * c, n, Method.BRUTE_FORCE)


def correction_contraction(spec: OptimizerSpec, loss: LossModel,
                           theta: ParamVector, n: int) -> CorrectionTerm:
    """Same sum as correction_bruteforce, reassociated so each momentum slot
    needs a single Jacobian-vector product (fast enough for per-step use).
    Row-wise over a (B, d) stack whose spec.h is a (B, 1) column."""
    if n < 0:
        raise ValueError("n must be >= 0")
    g = loss.grad(theta)
    zeros = np.zeros(np.shape(theta))
    if n == 0:
        return CorrectionTerm(zeros, 0, Method.CONTRACTION, grad=g)
    form = momentum_form(spec)
    P = _prefix_contracted(form, theta, g, n)
    # V[k-1] = P[n] - P[n-k] = sum of contracted F^(s) over the k steps before n
    V = P[n][None] - P[:n][::-1]
    m_top = form.contracted_momenta(theta, g, n)
    us = []
    for l, slot in enumerate(form.slots):
        if slot.beta == 0.0:
            us.append(zeros)
            continue
        weights = slot.beta ** np.arange(1, n + 1, dtype=np.float64)
        w_vec = (weights @ V.reshape(n, -1)).reshape(np.shape(theta))
        us.append(slot.bias(n) * form.feature_jvp(loss, theta, g, l, w_vec))
    c = form.output_jac_apply(m_top, us)
    return CorrectionTerm(spec.h * c, n, Method.CONTRACTION, grad=g)


def _ema_lag_coefficient(beta: float, n: Optional[int]) -> float:
    """bias(n) * sum_{k=1}^{n} k beta^k for a bias-corrected average:
    beta/(1-beta) - (n+1) beta^(n+1)/(1-beta^(n+1)); limit beta/(1-beta)."""
    if beta == 0.0:
        return 0.0
    if n is None:
        return beta / (1.0 - beta)
    return beta / (1.0 - beta) - (n + 1) * beta ** (n + 1) / (1.0 - beta ** (n + 1))


def heavyball_bracket(beta: float, n: Optional[int]) -> float:
    """Finite-n attenuation of the heavy-ball correction; 1 in the limit.

    Algebraically 1 - tail with tail = (2n+1) beta^n (1-beta) + beta^(2n+1),
    which costs O(1) and loses at most one bit while tail <= 1/2.  Above that
    it is evaluated as the cancellation-free positive sum
    (1-beta) * sum_i beta^(n-i) (1-beta^i)^2 (pair the geometric terms around
    beta^n), whose n is then at most about 2.3/(1-beta).  At n = 1 this is
    (1-beta)^3 exactly, so the n = 1 coefficient reduces to beta."""
    if n is None:
        return 1.0
    if n <= 0:
        return 0.0
    tail = (2 * n + 1) * (1.0 - beta) * beta ** n + beta ** (2 * n + 1)
    if tail <= 0.5:
        return 1.0 - tail
    i = np.arange(1, n + 1, dtype=np.float64)
    terms = beta ** (n - i) * (1.0 - beta ** i) ** 2
    return float((1.0 - beta) * np.sum(terms))


def correction_closed_heavyball(spec: OptimizerSpec, loss: LossModel,
                                theta: ParamVector, n: Optional[int] = None) -> CorrectionTerm:
    """h * beta * bracket(n) / (1-beta)^3 * hvp(theta, grad): one hvp."""
    g = loss.grad(theta)
    if n == 0:
        # empty sum; the bracket is zero only up to rounding
        return CorrectionTerm(np.zeros(np.shape(theta)), 0, Method.CLOSED_FORM_FINITE_N,
                              grad=g)
    beta = spec.beta1
    coef = spec.h * beta * heavyball_bracket(beta, n) / (1.0 - beta) ** 3
    vec = coef * loss.hvp(theta, g)
    method = Method.CLOSED_FORM_ASYMPTOTIC if n is None else Method.CLOSED_FORM_FINITE_N
    return CorrectionTerm(vec, n, method, grad=g)


def correction_closed_adamw(spec: OptimizerSpec, loss: LossModel,
                            theta: ParamVector, n: Optional[int] = None) -> CorrectionTerm:
    """Componentwise closed form for the adaptive kinds; two momentum lag
    coefficients, one hvp.  With bias-corrected averages every inner
    contracted update equals F, so the form is exact at every n; NAdamW
    weights the first average's lag by beta1, the share it has in the
    numerator."""
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
    vec = spec.h * (a1 - a2 + eps * a2 / den2) * direction / den
    method = Method.CLOSED_FORM_ASYMPTOTIC if n is None else Method.CLOSED_FORM_FINITE_N
    return CorrectionTerm(vec, n, method, grad=g)


def correction_closed_lionk(spec: OptimizerSpec, loss: LossModel,
                            theta: ParamVector, n: Optional[int] = None) -> CorrectionTerm:
    """Closed form for the sign-momentum family, in the large-n limit and
    (with bias-corrected averages) at finite n:
    -h * coef * K''(-grad) * hvp(theta, K'(-grad) - lam*theta).  Without bias
    correction there is no finite-n closed form; correction_closed falls back
    to the contraction route."""
    if n is not None and not spec.bias_correction:
        raise ValueError("finite-n closed form assumes bias-corrected averages")
    rho1, rho2 = spec.beta1, spec.beta2
    if n is None:
        coef = rho1 / (1.0 - rho2)
        method = Method.CLOSED_FORM_ASYMPTOTIC
    else:
        coef = rho1 / (1.0 - rho2) - (n + 1) * rho2 ** n * rho1 / (1.0 - rho2 ** (n + 1))
        method = Method.CLOSED_FORM_FINITE_N
    form = momentum_form(spec)
    g = loss.grad(theta)
    kg = form.kgrad(-g)
    vec = -spec.h * coef * form.khess_diag(-g) * loss.hvp(theta, kg - spec.lam * theta)
    return CorrectionTerm(vec, n, method, grad=g)


def correction_limit(spec: OptimizerSpec, loss: LossModel,
                     theta: ParamVector) -> CorrectionTerm:
    """Large-n limit of the slot contraction, derived from the momentum form:
    every inner update tends to the large-n contracted update F, so the lag-k
    window sums to k F and sum_k k beta^k = beta/(1-beta)^2.  One hvp."""
    form = momentum_form(spec)
    g = loss.grad(theta)
    vec = spec.h * form.limit_jvp(loss, theta, g, form.lag_scales)[1]
    return CorrectionTerm(vec, None, Method.CLOSED_FORM_ASYMPTOTIC, grad=g)


def correction_closed(spec: OptimizerSpec, loss: LossModel, theta: ParamVector,
                      n: Optional[int] = None) -> CorrectionTerm:
    """Best available closed form.  In the large-n limit every kind has one;
    at finite n, where none covers (kind, bias correction), it falls back to
    the O(n) contraction evaluation, flagged in meta.  Every route works
    row-wise over a (B, d) stack of points whose spec.h is a (B, 1) column,
    and none re-validates theta: its callers hold checked iterates."""
    kind = spec.kind
    if kind is Kind.HEAVY_BALL:
        return correction_closed_heavyball(spec, loss, theta, n)
    if kind is Kind.LION_K and (n is None or spec.bias_correction):
        return correction_closed_lionk(spec, loss, theta, n)
    if kind in (Kind.ADAMW, Kind.NADAMW) and spec.bias_correction:
        return correction_closed_adamw(spec, loss, theta, n)
    if n is None:
        return correction_limit(spec, loss, theta)
    term = correction_contraction(spec, loss, theta, n)
    unbiased = "" if spec.bias_correction else " without bias correction"
    term.meta["fallback"] = f"no finite-n closed form for {kind.value}{unbiased}"
    return term


def modified_loss_heavyball(loss: LossModel, theta: ParamVector,
                            h: float, beta: float) -> float:
    """Scalar perturbed loss whose gradient drives the rescaled memoryless
    heavy-ball step: L + h*beta/(2(1-beta)^2) ||grad||^2."""
    theta = as_param_vector(theta)
    g = loss.grad(theta)
    return float(loss.value(theta) + h * beta / (2.0 * (1.0 - beta) ** 2) * (g @ g))
