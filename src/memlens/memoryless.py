"""Memoryless iterations: the first-order step (contracted update only) and
the second-order step (contracted update plus memory correction), together
with the one-step defect that plugs memoryless iterates back into the
memoryful update.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Kind, OptimizerSpec, ParamVector, RunConfig,
                   Trajectory, as_param_vector, softsign)
from .correction import correction_closed
from .losses import LossModel, loss_from_config
from .memoryful import MomentumState, drive, momentum_form


class Order(enum.Enum):
    FIRST_ORDER = "first"
    SECOND_ORDER = "second"


class CorrectionVariant(enum.Enum):
    FINITE_N = "finite-n"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class MemorylessKind:
    """First order drops the correction (and ignores the variant).  The
    finite-n variant keeps the exact step-n coefficients in both the
    contracted update and the correction; the asymptotic variant uses the
    large-n limits of both, giving an autonomous one-step map."""

    order: Order = Order.SECOND_ORDER
    variant: CorrectionVariant = CorrectionVariant.FINITE_N

    @classmethod
    def first(cls) -> "MemorylessKind":
        return cls(order=Order.FIRST_ORDER)

    @classmethod
    def second(cls, variant: CorrectionVariant = CorrectionVariant.FINITE_N) -> "MemorylessKind":
        return cls(order=Order.SECOND_ORDER, variant=variant)


def step_memoryless(spec: OptimizerSpec, loss: LossModel, theta: ParamVector,
                    n: int, kind: MemorylessKind) -> ParamVector:
    """theta - h * [contracted update + correction] at step n."""
    theta = as_param_vector(theta)
    if kind.order is Order.SECOND_ORDER and kind.variant is CorrectionVariant.ASYMPTOTIC:
        n = None  # large-n coefficients in both terms
    F = momentum_form(spec).contracted_F(loss, theta, n, loss.grad(theta))
    if kind.order is Order.FIRST_ORDER:
        return theta - spec.h * F
    return theta - spec.h * (F + correction_closed(spec, loss, theta, n).vector)


def run_memoryless(config: RunConfig, kind: MemorylessKind,
                   loss: Optional[LossModel] = None) -> Trajectory:
    """floor(T/h) memoryless steps sharing the memoryful initial condition."""
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    spec = config.optimizer
    meta = {
        "order": kind.order.value,
        "variant": kind.variant.value,
        "kind": spec.kind.value,
        "correction_method": None,
    }
    if kind.order is Order.SECOND_ORDER:
        probe_n = None if kind.variant is CorrectionVariant.ASYMPTOTIC else 1
        term = correction_closed(spec, loss, config.initial_theta(), probe_n)
        meta["correction_method"] = term.method.value
        if term.meta.get("fallback"):
            meta["correction_fallback"] = term.meta["fallback"]
    return drive(config, loss, lambda theta, n: step_memoryless(spec, loss, theta, n, kind),
                 meta)


def one_step_defect(config: RunConfig, n_max: Optional[int] = None,
                    loss: Optional[LossModel] = None,
                    trajectory: Optional[Trajectory] = None) -> np.ndarray:
    """Residuals from feeding second-order memoryless iterates into the
    memoryful update: defect_n = || theta~(n+1) - theta~(n) + h F^(n)(theta~(n..0)) ||_inf.

    Third order in h, uniformly over the horizon.
    """
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    if trajectory is None:
        trajectory = run_memoryless(config, MemorylessKind.second(), loss=loss)
    spec = config.optimizer
    form = momentum_form(spec)
    thetas = trajectory.iterates
    last = len(thetas) - 1
    if n_max is not None:
        last = min(last, n_max + 1)
    sums = MomentumState.fresh(form, thetas.shape[1]).sums
    defects = np.empty(last)
    for n in range(last):
        sums, F_replay = form.advance(sums, thetas[n], loss.grad(thetas[n]), n)
        defects[n] = float(np.max(np.abs(thetas[n + 1] - thetas[n] + spec.h * F_replay)))
    return defects


# -- hand-specialized memoryless updates (independent transcriptions) --------


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
