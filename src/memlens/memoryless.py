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

from .core import OptimizerSpec, ParamVector, RunConfig, Trajectory
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
    second-order step reuses the one its correction evaluated.  Given meta,
    a second-order step records there the method of its correction and the
    fallback it took, if any."""
    form = momentum_form(spec)
    if kind.order is Order.FIRST_ORDER:
        return theta - spec.h * form.contracted_F(loss, theta, n, loss.grad(theta))
    if kind.variant is CorrectionVariant.ASYMPTOTIC:
        n = None  # large-n coefficients in both terms
    term = correction_closed(spec, loss, theta, n)
    if meta is not None:
        meta["correction_method"] = term.method.value
        if "fallback" in term.meta:
            meta["correction_fallback"] = term.meta["fallback"]
    return theta - spec.h * (form.contracted_F(loss, theta, n, term.grad) + term.vector)


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


def one_step_defect(config: RunConfig, n_max: Optional[int] = None,
                    loss: Optional[LossModel] = None,
                    trajectory: Union[Trajectory, Sequence[Trajectory], None] = None):
    """Residuals from feeding second-order memoryless iterates into the
    memoryful update: defect_n = || theta~(n+1) - theta~(n) + h F^(n)(theta~(n..0)) ||_inf.

    Third order in h, uniformly over the horizon.  trajectory is one run
    (the default: the second-order run of config) or a list of runs of
    config's optimizer at their own h, replayed in lockstep as one stack;
    the result is one array of defects per run.
    """
    if loss is None:
        loss = loss_from_config(config.loss_id, config.loss_params,
                                config.dimension, config.seed)
    if trajectory is None:
        trajectory = run_memoryless(config, MemorylessKind.second(), loss=loss)
    single = isinstance(trajectory, Trajectory)
    runs = [trajectory] if single else list(trajectory)
    lasts = [len(t) - 1 if n_max is None else min(len(t) - 1, n_max + 1) for t in runs]
    # rows by decreasing replay length, so the rows still replaying at step n
    # are a prefix of the stack
    order = sorted(range(len(runs)), key=lambda i: -lasts[i])
    thetas = np.concatenate([runs[i].iterates for i in order])
    starts = np.cumsum([0] + [len(runs[i]) for i in order[:-1]])
    out_starts = np.cumsum([0] + [lasts[i] for i in order[:-1]])
    out = np.empty(sum(lasts))
    h = np.array([[runs[i].h] for i in order])
    form = momentum_form(config.optimizer)
    sums = MomentumState.fresh(form, (len(runs), thetas.shape[1])).sums
    k = len(runs)
    for n in range(max(lasts)):
        if lasts[order[k - 1]] <= n:
            while lasts[order[k - 1]] <= n:
                k -= 1
            sums, h = [s[:k] for s in sums], h[:k]
        rows = starts[:k] + n
        theta = thetas[rows]
        sums, F_replay = form.advance(sums, theta, loss.grad(theta), n)
        out[out_starts[:k] + n] = np.max(np.abs(thetas[rows + 1] - theta + h * F_replay),
                                         axis=1)
    defects = [None] * len(runs)
    for i, start in zip(order, out_starts):
        defects[i] = out[start:start + lasts[i]]
    return defects[0] if single else defects
