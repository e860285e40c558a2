"""Memoryless iterations: the first-order step (contracted update only) and
the second-order step (contracted update plus memory correction), together
with the one-step defect that feeds a recorded run's iterates back into the
memoryful update.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import OptimizerSpec, ParamVector, RunConfig, Trajectory, floor_steps
from .correction import correction_closed
from .losses import LossModel, loss_from_config
from .memoryful import drive, momentum_form, stack_spec


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
                    n: int, kind: MemorylessKind, meta: Optional[dict] = None) -> ParamVector:
    """theta - h * [contracted update + correction] at step n, row-wise over a
    (B, d) stack whose spec.h is a (B, 1) column.  One grad per step: the
    second-order step takes the contracted update its correction evaluated.
    Given meta, a second-order step records there the method of its
    correction and the fallback it took, if any."""
    if kind.order is Order.FIRST_ORDER:
        return theta - spec.h * momentum_form(spec).contracted_F(loss, theta, n,
                                                                 loss.grad(theta))
    if kind.variant is CorrectionVariant.ASYMPTOTIC:
        n = None  # large-n coefficients in both terms
    term = correction_closed(spec, loss, theta, n)
    if meta is not None:
        meta["correction_method"] = term.method.value
        if "fallback" in term.meta:
            meta["correction_fallback"] = term.meta["fallback"]
    return theta - spec.h * (term.update + term.vector)


def run_memoryless(config: RunConfig, kind: MemorylessKind,
                   loss: Optional[LossModel] = None, hs: Optional[Sequence[float]] = None):
    """floor(T/h) memoryless steps sharing the memoryful initial condition:
    one Trajectory at config.optimizer.h, or with hs one per step size,
    stepped in lockstep as one stack.  The correction method in meta is the
    first step's (None when no second-order step ran)."""
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    spec = stack_spec(config.optimizer, hs)
    meta = {
        "order": kind.order.value,
        "variant": kind.variant.value,
        "kind": spec.kind.value,
        "correction_method": None,
    }

    def step(theta, n):
        return step_memoryless(spec, loss, theta, n, kind, meta if n == 0 else None)

    def keep(stay):
        nonlocal spec
        spec = spec.with_h(spec.h[stay])

    return drive(config, loss, step, meta, hs, keep)


def one_step_defect(spec: OptimizerSpec, loss: LossModel, run: Trajectory) -> np.ndarray:
    """Residuals from feeding a run's iterates into the memoryful update:
    defect_n = || theta~(n+1) - theta~(n) + h F^(n)(theta~(n..0)) ||_inf, one per step.

    Third order in h, uniformly over the horizon, for a second-order run.
    run is one whole run of spec's optimizer at run.h; a run cut short by a
    domain exit is an error.  One grad call over its iterates feeds the
    memoryful engine's own MomentumForm.advance."""
    if run.domain_exit is not None or len(run) != floor_steps(run.T, run.h) + 1:
        raise ValueError(f"the run at h={run.h} is not whole (domain exit: {run.domain_exit})")
    theta = run.iterates
    grads = loss.grad(theta[:-1])
    form = momentum_form(spec)
    sums = [0.0] * len(form.slots)
    F = np.empty_like(grads)
    for n in range(len(grads)):
        sums, F[n] = form.advance(sums, theta[n], grads[n], n)
    return np.abs(theta[1:] - theta[:-1] + run.h * F).max(axis=1)
