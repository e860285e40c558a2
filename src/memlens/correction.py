"""Memory-correction terms: the linear-in-h vector added to a contracted
update so that the memoryless iteration tracks the memoryful one to second
order.

Three evaluation routes are provided and cross-checked:
  * brute force  - the literal double sum over lag k and inner step s,
                   with prefix sums making it O(n) per evaluation;
  * contraction  - the same sum reassociated through the momentum slots so
                   each slot costs one Jacobian-vector product; its large-n
                   limit covers kinds without a large-n closed form;
  * closed forms - per-optimizer formulas (finite-n where available,
                   large-n limits for all kinds).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Kind, OptimizerSpec, ParamVector, as_param_vector, linf_distance
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


def _prefix_contracted(form: MomentumForm, loss: LossModel, theta: ParamVector,
                       g: ParamVector, n: int) -> np.ndarray:
    """P[j] = sum over steps s < j of the contracted update F^(s)(theta)."""
    feats = form.feature_values(theta, g)
    P = np.zeros((n + 1, theta.size))
    acc = np.zeros(theta.size)
    for s in range(n):
        m = [slot.bias(s) * slot.geometric_sum(s) * f
             for slot, f in zip(form.slots, feats)]
        acc = acc + form.output(m)
        P[s + 1] = acc
    return P


def correction_bruteforce(spec: OptimizerSpec, loss: LossModel,
                          theta: ParamVector, n: int) -> CorrectionTerm:
    """Literal evaluation of the correction double sum at step n, all arguments
    frozen at theta.  Inner sums use the step-s bias coefficients."""
    theta = as_param_vector(theta)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return CorrectionTerm(np.zeros(theta.size), 0, Method.BRUTE_FORCE)
    form = momentum_form(spec)
    g = loss.grad(theta)
    P = _prefix_contracted(form, loss, theta, g, n)
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
    needs a single Jacobian-vector product (fast enough for per-step use)."""
    theta = as_param_vector(theta)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return CorrectionTerm(np.zeros(theta.size), 0, Method.CONTRACTION)
    form = momentum_form(spec)
    g = loss.grad(theta)
    P = _prefix_contracted(form, loss, theta, g, n)
    # V[k-1] = P[n] - P[n-k] = sum of contracted F^(s) over the k steps before n
    V = P[n][None, :] - P[:n][::-1]
    m_top = form.contracted_momenta(theta, g, n)
    zeros = np.zeros(theta.size)
    us = []
    for l, slot in enumerate(form.slots):
        if slot.beta == 0.0:
            us.append(zeros)
            continue
        weights = slot.beta ** np.arange(1, n + 1, dtype=np.float64)
        w_vec = weights @ V
        us.append(slot.bias(n) * form.feature_jvp(loss, theta, g, l, w_vec))
    c = form.output_jac_apply(m_top, us)
    return CorrectionTerm(spec.h * c, n, Method.CONTRACTION)


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

    Algebraically 1 - (2n+1) beta^n (1-beta) - beta^(2n+1), but evaluated as
    the cancellation-free positive sum (1-beta) * sum_i beta^(n-i) (1-beta^i)^2
    (pair the geometric terms around beta^n).  At n = 1 this is (1-beta)^3
    exactly, so the n = 1 coefficient reduces to beta."""
    if n is None:
        return 1.0
    if n <= 0:
        return 0.0
    i = np.arange(1, n + 1, dtype=np.float64)
    terms = beta ** (n - i) * (1.0 - beta ** i) ** 2
    return float((1.0 - beta) * np.sum(terms))


def correction_closed_heavyball(spec: OptimizerSpec, loss: LossModel,
                                theta: ParamVector, n: Optional[int] = None) -> CorrectionTerm:
    """h * beta * bracket(n) / (1-beta)^3 * hvp(theta, grad): one hvp."""
    theta = as_param_vector(theta)
    if n == 0:
        # empty sum; the bracket is zero only up to rounding
        return CorrectionTerm(np.zeros(theta.size), 0, Method.CLOSED_FORM_FINITE_N)
    beta = spec.beta1
    g = loss.grad(theta)
    coef = spec.h * beta * heavyball_bracket(beta, n) / (1.0 - beta) ** 3
    vec = coef * loss.hvp(theta, g)
    method = Method.CLOSED_FORM_ASYMPTOTIC if n is None else Method.CLOSED_FORM_FINITE_N
    return CorrectionTerm(vec, n, method)


def correction_closed_nesterov(spec: OptimizerSpec, loss: LossModel,
                               theta: ParamVector) -> CorrectionTerm:
    """Large-n limit only: beta^2 in place of the heavy-ball beta."""
    theta = as_param_vector(theta)
    beta = spec.beta1
    g = loss.grad(theta)
    vec = spec.h * beta ** 2 / (1.0 - beta) ** 3 * loss.hvp(theta, g)
    return CorrectionTerm(vec, None, Method.CLOSED_FORM_ASYMPTOTIC)


def correction_closed_adamw(spec: OptimizerSpec, loss: LossModel,
                            theta: ParamVector, n: Optional[int] = None) -> CorrectionTerm:
    """Componentwise closed form; two momentum lag coefficients, one hvp."""
    theta = as_param_vector(theta)
    if not spec.bias_correction:
        raise ValueError("closed form assumes bias-corrected averages")
    eps = spec.eps
    g = loss.grad(theta)
    den2 = g * g + eps
    den = np.sqrt(den2)
    direction = loss.hvp(theta, g / den + spec.lam * theta)
    a1 = _ema_lag_coefficient(spec.beta1, n)
    a2 = _ema_lag_coefficient(spec.beta2, n)
    vec = spec.h * (a1 - a2 + eps * a2 / den2) * direction / den
    method = Method.CLOSED_FORM_ASYMPTOTIC if n is None else Method.CLOSED_FORM_FINITE_N
    return CorrectionTerm(vec, n, method)


def correction_closed_nadamw(spec: OptimizerSpec, loss: LossModel,
                             theta: ParamVector) -> CorrectionTerm:
    """Large-n limit only: leading coefficient beta1^2/(1-beta1) - beta2/(1-beta2)."""
    theta = as_param_vector(theta)
    if not spec.bias_correction:
        raise ValueError("closed form assumes bias-corrected averages")
    eps = spec.eps
    g = loss.grad(theta)
    den2 = g * g + eps
    den = np.sqrt(den2)
    direction = loss.hvp(theta, g / den + spec.lam * theta)
    a1 = spec.beta1 ** 2 / (1.0 - spec.beta1)
    a2 = spec.beta2 / (1.0 - spec.beta2)
    vec = spec.h * (a1 - a2 + eps * a2 / den2) * direction / den
    return CorrectionTerm(vec, None, Method.CLOSED_FORM_ASYMPTOTIC)


def correction_closed_lionk(spec: OptimizerSpec, loss: LossModel,
                            theta: ParamVector, n: Optional[int] = None) -> CorrectionTerm:
    """Closed forms for the sign-momentum family.

    Large-n limit and (with bias-corrected averages) finite n share one shape:
    -h * coef * K''(-grad) * hvp(theta, K'(-grad) - lam*theta).  Without bias
    correction the finite-n value keeps the per-step attenuation of the inner
    sums and is evaluated with prefix sums plus a single hvp.
    """
    theta = as_param_vector(theta)
    rho1, rho2 = spec.beta1, spec.beta2
    lam = spec.lam
    form = momentum_form(spec)
    g = loss.grad(theta)

    if n is None or spec.bias_correction:
        if n is None:
            coef = rho1 / (1.0 - rho2)
            method = Method.CLOSED_FORM_ASYMPTOTIC
        else:
            coef = rho1 / (1.0 - rho2) - (n + 1) * rho2 ** n * rho1 / (1.0 - rho2 ** (n + 1))
            method = Method.CLOSED_FORM_FINITE_N
        kg = form.kgrad(-g)
        vec = -spec.h * coef * form.khess_diag(-g) * loss.hvp(theta, kg - lam * theta)
        return CorrectionTerm(vec, n, method)

    # finite n, averages without bias correction: the contracted gradient
    # carries a factor (1 - rho1 rho2^s) at inner step s
    if n == 0:
        return CorrectionTerm(np.zeros(theta.size), 0, Method.CLOSED_FORM_FINITE_N)
    d = theta.size
    P = np.zeros((n + 1, d))
    acc = np.zeros(d)
    for s in range(n):
        scale = 1.0 - rho1 * rho2 ** s
        acc = acc + (-form.kgrad(-scale * g) + lam * theta)
        P[s + 1] = acc
    W = np.zeros(d)
    for k in range(1, n + 1):
        W = W + rho2 ** (k - 1) * (P[n] - P[n - k])
    scale_n = 1.0 - rho1 * rho2 ** n
    vec = spec.h * rho1 * (1.0 - rho2) * form.khess_diag(-scale_n * g) * loss.hvp(theta, W)
    return CorrectionTerm(vec, n, Method.CLOSED_FORM_FINITE_N)


def correction_limit(spec: OptimizerSpec, loss: LossModel,
                     theta: ParamVector) -> CorrectionTerm:
    """Large-n limit of the slot contraction, derived from the momentum form:
    every inner update tends to the large-n contracted update F, so the lag-k
    window sums to k F and sum_k k beta^k = beta/(1-beta)^2.  One hvp."""
    theta = as_param_vector(theta)
    form = momentum_form(spec)
    scales = [s.bias_limit * s.beta / (1.0 - s.beta) ** 2 for s in form.slots]
    vec = spec.h * form.limit_jvp(loss, theta, loss.grad(theta), scales)
    return CorrectionTerm(vec, None, Method.CONTRACTION)


def correction_closed(spec: OptimizerSpec, loss: LossModel, theta: ParamVector,
                      n: Optional[int] = None) -> CorrectionTerm:
    """Best available closed form; where none covers (kind, n, bias
    correction) it falls back to the contraction evaluation or its large-n
    limit, flagged in meta."""
    kind = spec.kind
    if kind is Kind.HEAVY_BALL:
        return correction_closed_heavyball(spec, loss, theta, n)
    if kind is Kind.LION_K:
        return correction_closed_lionk(spec, loss, theta, n)
    if kind is Kind.ADAMW and spec.bias_correction:
        return correction_closed_adamw(spec, loss, theta, n)
    if n is None and kind is Kind.NESTEROV:
        return correction_closed_nesterov(spec, loss, theta)
    if n is None and kind is Kind.NADAMW and spec.bias_correction:
        return correction_closed_nadamw(spec, loss, theta)
    if n is None:
        term = correction_limit(spec, loss, theta)
    else:
        term = correction_contraction(spec, loss, theta, n)
    unbiased = "" if spec.bias_correction else " without bias correction"
    term.meta["fallback"] = (f"no {'large' if n is None else 'finite'}-n closed form "
                             f"for {kind.value}{unbiased}")
    return term


def correction_signum_adam_identity_check(beta: float, loss: LossModel,
                                          theta: ParamVector, eps: float,
                                          lam: float = 0.0, h: float = 1e-3) -> float:
    """Relative gap between the large-n corrections of the adaptive update with
    equal momentum parameters and the sign-momentum update with the same pair.
    Zero up to rounding."""
    theta = as_param_vector(theta)
    if beta == 0.0:
        # both corrections vanish identically
        return 0.0
    adam = OptimizerSpec.adamw(h=h, beta1=beta, beta2=beta, lam=lam, eps=eps)
    lion = OptimizerSpec.signum(h=h, beta=beta, lam=lam, eps=eps)
    ca = correction_closed_adamw(adam, loss, theta).vector
    cl = correction_closed_lionk(lion, loss, theta).vector
    scale = max(float(np.max(np.abs(ca))), float(np.max(np.abs(cl))))
    if scale == 0.0:
        return 0.0
    return linf_distance(ca, cl) / scale


def modified_loss_heavyball(loss: LossModel, theta: ParamVector,
                            h: float, beta: float) -> float:
    """Scalar perturbed loss whose gradient drives the rescaled memoryless
    heavy-ball step: L + h*beta/(2(1-beta)^2) ||grad||^2."""
    theta = as_param_vector(theta)
    g = loss.grad(theta)
    return float(loss.value(theta) + h * beta / (2.0 * (1.0 - beta) ** 2) * (g @ g))


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
