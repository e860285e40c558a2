"""Memoryless iterations: the first-order step (contracted update only) and
the second-order step (contracted update plus memory correction), together
with the one-step defect that plugs memoryless iterates back into the
memoryful update.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import OptimizerSpec, ParamVector, RunConfig, Trajectory, floor_steps
from .correction import correction_closed
from .losses import LossModel, loss_from_config
from .memoryful import MomentumState, drive, momentum_form, stack_spec


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


def one_step_defect(config: RunConfig, loss: Optional[LossModel] = None,
                    trajectory: Union[Trajectory, Sequence[Trajectory], None] = None):
    """Residuals from feeding second-order memoryless iterates into the
    memoryful update: defect_n = || theta~(n+1) - theta~(n) + h F^(n)(theta~(n..0)) ||_inf.

    Third order in h, uniformly over the horizon.  trajectory is one whole
    run of config's optimizer (the default: its second-order run) or a list
    of them at their own h; a run with a domain exit is an error.  drive
    replays them as one stack, whose step advances the memoryful sums at each
    row's recorded iterate and returns the recorded next one.  The result is
    one array of defects per run.
    """
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    if trajectory is None:
        trajectory = run_memoryless(config, MemorylessKind.second(), loss=loss)
    single = isinstance(trajectory, Trajectory)
    runs = [trajectory] if single else list(trajectory)
    for t in runs:
        if t.domain_exit is not None or len(t) != floor_steps(config.horizon, t.h) + 1:
            raise ValueError(f"the run at h={t.h} is not whole (domain exit: {t.domain_exit})")
    thetas = np.concatenate([t.iterates for t in runs])
    lengths = np.array([len(t) for t in runs])
    # where the stack's rows start in thetas, and their defects in out (a run
    # has one defect fewer than iterates); keep drops the rows that leave
    starts = np.cumsum(lengths) - lengths
    out_starts = starts - np.arange(len(runs))
    out = np.empty(len(thetas) - len(runs))
    form = momentum_form(config.optimizer)
    sums = MomentumState.fresh(form, (len(runs), thetas.shape[1])).sums
    h = np.array([[t.h] for t in runs])

    def step(theta, n):
        nonlocal sums
        if n == 0:  # later, theta is the recorded iterate the last step returned
            theta = thetas[starts]
        following = thetas[starts + (n + 1)]
        sums, F = form.advance(sums, theta, loss.grad(theta), n)
        out[out_starts + n] = np.abs(following - theta + h * F).max(axis=1)
        return following

    def keep(stay):
        nonlocal sums, h, starts, out_starts
        sums, h = [s[stay] for s in sums], h[stay]
        starts, out_starts = starts[stay], out_starts[stay]

    drive(config, loss, step, {}, [t.h for t in runs], keep)
    defects = np.split(out, np.cumsum(lengths - 1)[:-1])
    return defects[0] if single else defects
