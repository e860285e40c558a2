"""Memory-correction terms: the linear-in-h vector added to a contracted
update so that the memoryless iteration tracks the memoryful one to second
order.  It is the momentum slots' Jacobian applied to the history windows,
which every route takes from one MomentumForm.jvp_pass.  Three evaluation
routes are provided and cross-checked:
  * brute force  - the literal double sum over lag k and inner step s,
                   with prefix sums making it O(n): one pass per lag;
  * contraction  - the same sum reassociated through the momentum slots,
                   with every inner update in one array evaluation and one
                   pass over all n windows;
  * closed form  - correction_closed, which takes one of three routes: the
                   O(1) bracket of the heavy ball and Nesterov at finite n;
                   the lag-weight route, derived from the momentum form, in
                   the large-n limit and at every n when the contracted
                   update does not depend on n; and the contraction as the
                   fallback, taken only at finite n by AdamW, NAdamW and
                   Lion-K without bias correction.
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
    # the contracted update F^(n) at theta from the grad the route evaluated,
    # so a memoryless step pays no second grad (every route of
    # correction_closed sets it; the brute-force reference does not)
    update: Optional[np.ndarray] = None


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
    c = form.scales(n)
    total = np.zeros(theta.size)
    for k in range(1, n + 1):
        w = tuple(slot.bias(n) * slot.beta ** k for slot in form.slots)
        total = total + form.jvp_pass(c, w)(loss, theta, g, P[n] - P[n - k])[1]
    return CorrectionTerm(spec.h * total, n, Method.BRUTE_FORCE)


def correction_contraction(spec: OptimizerSpec, loss: LossModel,
                           theta: ParamVector, n: int) -> CorrectionTerm:
    """Same sum as correction_bruteforce, reassociated so the n windows go
    through one jvp_pass, which also gives the update (fast enough for
    per-step use).  Row-wise over a (B, d) stack whose spec.h is a (B, 1)
    column."""
    if n < 0:
        raise ValueError("n must be >= 0")
    form = momentum_form(spec)
    g = loss.grad(theta)
    if n == 0:
        return CorrectionTerm(np.zeros(np.shape(theta)), 0, Method.CONTRACTION,
                              update=form.contracted_F(loss, theta, 0, g))
    P = _prefix_contracted(form, theta, g, n)
    # V[k-1] = P[n] - P[n-k] = sum of contracted F^(s) over the k steps before n
    V = P[n][None] - P[:n][::-1]
    # weights[k-1, l] = bias_l(n) beta_l^k, the weight of lag k in slot l
    lags = np.arange(1, n + 1, dtype=np.float64)[:, None]
    weights = np.array([slot.bias(n) for slot in form.slots]) \
        * np.array([slot.beta for slot in form.slots]) ** lags
    update, c = form.jvp_pass(form.scales(n), weights)(loss, theta, g, V)
    return CorrectionTerm(spec.h * c, n, Method.CONTRACTION, update=update)


def heavyball_bracket(beta: float, n: int, shift: int = 1) -> float:
    """Finite-n attenuation of the heavy-ball (shift 1) or Nesterov (shift 2)
    correction, whose contracted update at step s is
    (1-beta^(s+shift))/(1-beta) * grad.

    Algebraically 1 - tail with tail = (2n+1) beta^n (1-beta) + beta^(2n+1)
    for the heavy ball and (n+1) (1-beta)(1+beta) beta^n + beta^(2n+2) for
    Nesterov (factored: 1-beta*beta rounds worse near beta = 1).  That costs
    O(1) and loses at most one bit while tail <= 1/2.  Above that it is
    evaluated as the cancellation-free positive sum
    (1-beta) * sum_i beta^(n-i) (1-beta^i)(1-beta^(i+shift-1)) (pair the
    geometric terms around beta^n), whose n is then at most about
    2.3/(1-beta).  At n = 1 this is (1-beta)^3 (1+beta)^(shift-1) exactly, so
    the n = 1 heavy-ball coefficient reduces to beta."""
    if n <= 0:
        return 0.0
    if shift == 1:
        tail = (2 * n + 1) * (1.0 - beta) * beta ** n + beta ** (2 * n + 1)
    else:
        tail = (n + 1) * (1.0 - beta) * (1.0 + beta) * beta ** n + beta ** (2 * n + 2)
    if tail <= 0.5:
        return 1.0 - tail
    i = np.arange(1, n + 1, dtype=np.float64)
    terms = beta ** (n - i) * ((1.0 - beta ** i) * (1.0 - beta ** (i + shift - 1)))
    return float((1.0 - beta) * np.sum(terms))


def correction_closed_heavyball(spec: OptimizerSpec, loss: LossModel,
                                theta: ParamVector, n: int) -> CorrectionTerm:
    """Finite-n heavy-ball or Nesterov correction
    h * beta * bracket(n) / (1-beta)^3 * hvp(theta, grad): one hvp.  For
    Nesterov the bracket takes shift 2 and the coefficient one more factor
    beta, the weight of its momentum in the output."""
    g = loss.grad(theta)
    update = momentum_form(spec).contracted_F(loss, theta, n, g)
    if n == 0:
        # empty sum; the bracket is zero only up to rounding
        return CorrectionTerm(np.zeros(np.shape(theta)), 0, Method.CLOSED_FORM_FINITE_N,
                              update=update)
    beta = spec.beta1
    if spec.kind is Kind.NESTEROV:
        coef = spec.h * beta * beta * heavyball_bracket(beta, n, 2) / (1.0 - beta) ** 3
    else:
        coef = spec.h * beta * heavyball_bracket(beta, n) / (1.0 - beta) ** 3
    return CorrectionTerm(coef * loss.hvp(theta, g), n, Method.CLOSED_FORM_FINITE_N,
                          update=update)


def correction_closed(spec: OptimizerSpec, loss: LossModel, theta: ParamVector,
                      n: Optional[int] = None) -> CorrectionTerm:
    """Best available closed form, by one of three routes:
      * the heavy-ball/Nesterov bracket at finite n; one hvp;
      * lag weights - in the large-n limit, and at finite n when the form's
        contracted update does not depend on n, every inner update is the
        same F, so the lag-k window sums to k F and the correction is
        h * limit_jvp (jvp_pass on the one window F) with per-slot weights
        lag_weights(n); one hvp;
      * otherwise the O(n) contraction, flagged in meta as a fallback.
    Every route works row-wise over a (B, d) stack of points whose spec.h is
    a (B, 1) column, and none re-validates theta: its callers hold checked
    iterates."""
    if n is not None and spec.kind in (Kind.HEAVY_BALL, Kind.NESTEROV):
        return correction_closed_heavyball(spec, loss, theta, n)
    form = momentum_form(spec)
    if n is None or form.n_independent:
        F, jvp = form.limit_jvp(loss, theta, loss.grad(theta), form.lag_weights(n))
        method = Method.CLOSED_FORM_ASYMPTOTIC if n is None else Method.CLOSED_FORM_FINITE_N
        return CorrectionTerm(spec.h * jvp, n, method, update=F)
    term = correction_contraction(spec, loss, theta, n)
    term.meta["fallback"] = f"no finite-n closed form for {spec.kind.value} without bias correction"
    return term


def modified_loss_heavyball(loss: LossModel, theta: ParamVector,
                            h: float, beta: float) -> float:
    """Scalar perturbed loss whose gradient drives the rescaled memoryless
    heavy-ball step: L + h*beta/(2(1-beta)^2) ||grad||^2."""
    theta = as_param_vector(theta)
    g = loss.grad(theta)
    return float(loss.value(theta) + h * beta / (2.0 * (1.0 - beta) ** 2) * (g @ g))
