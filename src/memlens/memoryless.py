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
from .correction import closed_route
from .losses import LossModel
from .memoryful import MEMORYFUL, MomentumForm, momentum_form, run_stack


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

    def resolve(self, form: MomentumForm):
        """(update, meta), resolved once per stack: update(loss, theta, g, n, h) is
        step_memoryless with this kind's correction route (None at first order),
        g the grad at theta; meta names the kind and that route's method."""
        meta = {"order": self.order.value, "variant": self.variant.value,
                "kind": form.spec.kind.value, "correction_method": None}
        route = None
        if self.order is Order.SECOND_ORDER:
            route, method, fallback = closed_route(
                form, self.variant is CorrectionVariant.FINITE_N)
            meta["correction_method"] = method.value
            if fallback:
                meta["correction_fallback"] = fallback
        return (lambda *a: step_memoryless(form, route, *a)), meta


def step_memoryless(form: MomentumForm, route, loss: LossModel, theta: ParamVector,
                    g: ParamVector, n: int, h) -> np.ndarray:
    """The update of step n, theta - h * update, of a memoryless kind's rows
    from the grad g at theta: F^(n) at first order (route None), else F + c
    with (F, c) = route(loss, theta, g, n, h), a correction.closed_route (the
    asymptotic variant's takes the large-n coefficients in both terms).
    Row-wise over a (B, d) stack whose h is a (B, 1) column; a module
    function so that perfbench's tracer sees it."""
    if route is None:
        return form.contracted_F(loss, theta, n, g)
    F, c = route(loss, theta, g, n, h)
    return F + c


def run_memoryless(config: RunConfig, kinds: Sequence[MemorylessKind],
                   loss: Optional[LossModel] = None, hs: Optional[Sequence[float]] = None,
                   memoryful: bool = False) -> list:
    """run_stack of the memoryless kinds in kinds, from the memoryful initial
    condition: per kind, one Trajectory at config.optimizer.h, or with hs one
    per step size; with memoryful, the memoryful runs join and lead the list."""
    return run_stack(config, [MEMORYFUL] * memoryful + list(kinds), loss, hs)


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
