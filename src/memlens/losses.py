"""Loss fixtures with exact differential oracles (value, gradient,
Hessian-vector product) on a bounded domain, finite-difference checkers,
and the mini-batch quadratic family used for permutation-averaging studies.

Every oracle works row-wise: given one point (d,) it returns one value or
vector, given a (B, d) stack of points (and directions) it returns B of them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import ParamVector, as_param_vector, rng

FD_STEP_DEFAULT = 1e-5
FD_ABS_FLOOR = 1e-12
DOMAIN_RADIUS_DEFAULT = 1e3


@dataclass(frozen=True)
class LossModel:
    """Differential oracle for a loss on { theta : ||theta||_inf < domain_radius },
    row-wise over a (B, d) stack of points."""

    value: Callable[[ParamVector], float]
    grad: Callable[[ParamVector], ParamVector]
    hvp: Callable[[ParamVector, ParamVector], ParamVector]
    domain_radius: float = DOMAIN_RADIUS_DEFAULT
    name: str = "custom"


def make_quadratic(A: np.ndarray, b: ParamVector,
                   domain_radius: float = DOMAIN_RADIUS_DEFAULT) -> LossModel:
    """L(theta) = 0.5 theta^T A theta - b^T theta with A symmetric positive-definite."""
    A = np.asarray(A, dtype=np.float64)
    b = as_param_vector(b)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.size:
        raise ValueError("A must be square and match b")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(A))))):
        raise ValueError("asymmetric A")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("A must be positive-definite") from exc
    return _quadratic(0.5 * (A + A.T), b, domain_radius)


def _quadratic(A, b, domain_radius=DOMAIN_RADIUS_DEFAULT, name="quadratic") -> LossModel:
    """0.5 theta^T A theta - b^T theta for an exactly symmetric A, whose
    row-wise products theta @ A are then A theta; A need not be definite."""
    def value(theta):
        theta = np.asarray(theta)
        return 0.5 * np.sum(theta * (theta @ A), axis=-1) - theta @ b

    return LossModel(
        value=value,
        grad=lambda theta: np.asarray(theta) @ A - b,
        hvp=lambda theta, v: np.asarray(v) @ A,
        domain_radius=domain_radius,
        name=name,
    )


def make_logistic(X: np.ndarray, y: np.ndarray, ridge: float = 0.0,
                  domain_radius: float = DOMAIN_RADIUS_DEFAULT) -> LossModel:
    """Mean logistic loss over rows of X with labels +-1, plus ridge*||theta||^2/2."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or y.shape != (X.shape[0],):
        raise ValueError("X must be (m, d) with m >= 1 and matching labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +-1")
    if not 0.0 <= ridge < math.inf:
        raise ValueError("ridge must be finite and >= 0")
    m = X.shape[0]
    XT = np.ascontiguousarray(X.T)

    def margins(theta):
        return y * (np.asarray(theta) @ XT)

    def value(theta):
        t = margins(theta)
        theta = np.asarray(theta)
        return (np.mean(np.logaddexp(0.0, -t), axis=-1)
                + 0.5 * ridge * np.sum(theta * theta, axis=-1))

    def grad(theta):
        t = margins(theta)
        s = 1.0 / (1.0 + np.exp(t))  # sigmoid(-t)
        return -((y * s) @ X) / m + ridge * np.asarray(theta)

    def hvp(theta, v):
        t = margins(theta)
        s = 1.0 / (1.0 + np.exp(t))
        w = s * (1.0 - s)
        return ((w * (np.asarray(v) @ XT)) @ X) / m + ridge * np.asarray(v)

    return LossModel(value=value, grad=grad, hvp=hvp,
                     domain_radius=domain_radius, name="logistic")


def make_scalar_quartic(a: float, domain_radius: float = DOMAIN_RADIUS_DEFAULT) -> LossModel:
    """d = 1 loss a*theta^4/4: nonconstant Hessian, exact derivatives."""
    if not 0.0 < a < math.inf:
        raise ValueError("a must be finite and > 0")

    return LossModel(
        value=lambda theta: a * np.asarray(theta)[..., 0] ** 4 / 4.0,
        grad=lambda theta: a * np.asarray(theta) ** 3,
        hvp=lambda theta, v: 3.0 * a * np.asarray(theta) ** 2 * np.asarray(v),
        domain_radius=domain_radius,
        name="quartic",
    )


def fd_check_grad(loss: LossModel, theta: ParamVector, step: float = FD_STEP_DEFAULT) -> float:
    """Worst componentwise relative error of grad against central differences."""
    theta = as_param_vector(theta)
    if step <= 0.0:
        raise ValueError("step must be > 0")
    g = loss.grad(theta)
    worst = 0.0
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        fd = (loss.value(theta + e) - loss.value(theta - e)) / (2.0 * step)
        worst = max(worst, abs(fd - g[i]) / max(abs(g[i]), FD_ABS_FLOOR))
    return worst


def fd_check_hvp(loss: LossModel, theta: ParamVector, v: ParamVector,
                 step: float = FD_STEP_DEFAULT) -> float:
    """Worst componentwise relative error of hvp against central differences of grad."""
    theta = as_param_vector(theta)
    v = as_param_vector(v, theta.size)
    if step <= 0.0:
        raise ValueError("step must be > 0")
    hv = loss.hvp(theta, v)
    fd = (loss.grad(theta + step * v) - loss.grad(theta - step * v)) / (2.0 * step)
    denom = np.maximum(np.abs(hv), FD_ABS_FLOOR)
    return float(np.max(np.abs(fd - hv) / denom))


@dataclass(eq=False)
class MiniBatchFamily:
    """A family of mini-batch losses plus their arithmetic mean loss."""

    batches: tuple
    mean: LossModel
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.batches)


def make_minibatch_quadratics(count: int, d: int, spread: float, seed: int) -> MiniBatchFamily:
    """Family of quadratic losses with gradients g^(k)(theta) = A_k theta - b_k.

    Per-batch deviations from the mean are centered so the family mean is the
    base pair exactly (up to rounding); their scale is ~spread.  Deterministic
    in seed.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if not 0.0 <= spread < math.inf:
        raise ValueError("spread must be finite and >= 0")
    g = rng(seed, "minibatch-quadratic")
    q, _ = np.linalg.qr(g.standard_normal((d, d)))
    eigs = np.exp(g.uniform(np.log(0.5), np.log(2.0), size=d))
    A_mean = (q * eigs) @ q.T
    A_mean = 0.5 * (A_mean + A_mean.T)
    b_mean = g.standard_normal(d)

    S = g.standard_normal((count, d, d))
    S = 0.5 * (S + np.transpose(S, (0, 2, 1)))
    S -= S.mean(axis=0)
    D = g.standard_normal((count, d))
    D -= D.mean(axis=0)

    A_stack = A_mean[None, :, :] + spread * S
    b_stack = b_mean[None, :] + spread * D

    batches = tuple(_quadratic(A_stack[k], b_stack[k], name="minibatch")
                    for k in range(count))
    mean = _quadratic(A_mean, b_mean, name="minibatch-mean")
    return MiniBatchFamily(batches=batches, mean=mean,
                           meta={"count": count, "d": d, "spread": spread, "seed": seed})


def loss_from_config(loss_id: str, params: dict, dimension: int, seed: int) -> LossModel:
    """Build the loss fixture addressed by a string id plus parameters."""
    params = dict(params)
    radius = float(params.pop("domain_radius", DOMAIN_RADIUS_DEFAULT))
    if not radius > 0.0:
        raise ValueError(f"domain_radius must be > 0, got {radius}")
    if loss_id == "quadratic":
        eig_min = float(params.pop("eig_min", 0.5))
        eig_max = float(params.pop("eig_max", 2.0))
        if not 0.0 < eig_min <= eig_max < math.inf:
            raise ValueError("quadratic needs 0 < eig_min <= eig_max < inf")
        g = rng(seed, "quadratic-fixture")
        q, _ = np.linalg.qr(g.standard_normal((dimension, dimension)))
        eigs = np.exp(g.uniform(np.log(eig_min), np.log(eig_max), size=dimension))
        A = (q * eigs) @ q.T
        A = 0.5 * (A + A.T)
        b = g.standard_normal(dimension)
        loss = make_quadratic(A, b, domain_radius=radius)
    elif loss_id == "logistic":
        m = _integer(params, "points", 200)
        if m < 1:
            raise ValueError(f"logistic needs points >= 1, got {m}")
        ridge = float(params.pop("ridge", 0.0))
        g = rng(seed, "logistic-fixture")
        X = g.standard_normal((m, dimension)) / np.sqrt(dimension)
        w_true = g.standard_normal(dimension)
        y = np.where(X @ w_true + 0.3 * g.standard_normal(m) >= 0.0, 1.0, -1.0)
        loss = make_logistic(X, y, ridge=ridge, domain_radius=radius)
    elif loss_id == "quartic":
        if dimension != 1:
            raise ValueError("quartic is a d = 1 fixture")
        a = float(params.pop("a", 1.0))
        loss = make_scalar_quartic(a, domain_radius=radius)
    elif loss_id == "minibatch-quadratic":  # family_from_config checks the parameters
        return replace(family_from_config(params, dimension, seed).mean, domain_radius=radius)
    else:
        raise ValueError(f"unknown loss id: {loss_id!r}")
    if params:
        raise ValueError(f"unknown loss parameter(s) for {loss_id!r}: {sorted(params)}")
    return loss


def family_from_config(params: dict, dimension: int, seed: int) -> MiniBatchFamily:
    params = dict(params)
    params.pop("domain_radius", None)
    count = _integer(params, "count", 6)
    spread = float(params.pop("spread", 0.3))
    if params:
        raise ValueError(f"unknown loss parameter(s) for minibatch-quadratic: {sorted(params)}")
    return make_minibatch_quadratics(count, dimension, spread, seed)


def _integer(params: dict, key: str, default: int) -> int:
    """params.pop(key, default) as an int; a value that is not a finite
    integral number is an error naming the key."""
    value = params.pop(key, default)
    if not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"loss.{key} must be an integer, got {value!r}")
    return int(value)
