"""Experiment drivers: h-sweeps of the global memoryful/memoryless error,
one-step defect sweeps, per-step trajectory-closeness traces, and log-log
slope fitting with a rounding-noise floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .core import OptimizerSpec, RunConfig, Trajectory
from .losses import loss_from_config
from .memoryful import momentum_form
from .memoryless import MemorylessKind, one_step_defect, run_memoryless

# Metrics at or below this are indistinguishable from rounding noise and are
# excluded from slope fits.
ERROR_FLOOR = 1e3 * float(np.finfo(np.float64).eps)


@dataclass(eq=False)
class SweepPoint:
    h: float
    metric: float
    valid: bool = True
    note: str = ""


@dataclass(eq=False)
class SweepReport:
    """Per-h error measurements plus the fitted log-log slope."""

    points: List[SweepPoint]
    slope: float
    r2: float
    status: str  # "ok" | "degenerate"
    # the correction_method of the memoryless runs measured, and their
    # correction_fallback when one was taken; empty when no second-order
    # memoryless step ran
    correction: dict = field(default_factory=dict)

    def fitted_points(self) -> List[SweepPoint]:
        return [p for p in self.points if p.valid and p.metric > ERROR_FLOOR]


def fit_loglog(points: Sequence[Tuple[float, float]]) -> Tuple[float, float, float]:
    """Ordinary least squares of log(metric) on log(h): (slope, intercept, r2)."""
    if len(points) < 3:
        raise ValueError("need at least 3 points for a log-log fit")
    x = np.log(np.array([p[0] for p in points], dtype=np.float64))
    y = np.log(np.array([p[1] for p in points], dtype=np.float64))
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-20 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return slope, intercept, r2


def _correction(run: Trajectory) -> dict:
    """The correction_method of a memoryless run, and its correction_fallback
    when one is taken; empty for a first-order run."""
    return {k: run.meta[k] for k in ("correction_method", "correction_fallback")
            if run.meta.get(k) is not None}


def _assemble_report(points: List[SweepPoint], runs: List[Trajectory]) -> SweepReport:
    """Fits the points; runs are the discrete runs they measure, of one kind,
    whose meta names the correction route their steps take."""
    nan = float("nan")
    report = SweepReport(points=sorted(points, key=lambda p: -p.h), slope=nan,
                         r2=nan, status="degenerate", correction=_correction(runs[0]))
    usable = [(p.h, p.metric) for p in report.fitted_points()]
    if len(usable) >= 3:
        report.slope, _, report.r2 = fit_loglog(usable)
        report.status = "ok"
    return report


def n_burn_steps(spec: OptimizerSpec, tol: float = 1e-10) -> int:
    """Steps until every n-dependent coefficient is within tol of its limit;
    tol lies in (0, 1)."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"burn-in tol must lie in (0, 1), got {tol}")
    betas = [s.beta for s in momentum_form(spec).slots if s.beta > 0.0]
    if not betas:
        return 0
    return int(math.ceil(math.log(tol) / math.log(max(betas))))


def _gap_points(h_grid: Sequence[float], full: List[Trajectory],
                approx: List[Trajectory], n_burn: int = 0) -> List[SweepPoint]:
    """max_n || a^(n) - b^(n) ||_inf over n >= n_burn for each h and pair of
    runs; a point is invalid when either run left the domain, or neither
    reaches past the burn-in."""
    points = []
    for h, a, b in zip(h_grid, full, approx):
        m = min(len(a), len(b))
        exited = a.domain_exit is not None or b.domain_exit is not None
        if exited or n_burn >= m:
            points.append(SweepPoint(h=h, metric=float("nan"), valid=False,
                                     note="domain-exit" if exited else "burn-in"))
            continue
        gap = np.max(np.abs(a.iterates[n_burn:m] - b.iterates[n_burn:m]))
        points.append(SweepPoint(h=h, metric=float(gap)))
    return points


def global_error_sweep(config: RunConfig, h_grid: Sequence[float],
                       kinds: Sequence[MemorylessKind]) -> List[SweepReport]:
    """max_n || theta^(n) - theta~(n) ||_inf per h, from identical theta^(0),
    with the fitted log-log slope: one SweepReport per memoryless kind in
    kinds.  The memoryful runs and those of every kind, over every h, run as
    one lockstep stack."""
    h_grid = [float(h) for h in h_grid]
    if len(h_grid) < 5:
        raise ValueError("h_grid needs at least 5 points")
    if max(h_grid) / min(h_grid) < 30.0:
        raise ValueError("h_grid should span at least a factor of 30")
    memoryful, *approx = run_memoryless(config, kinds, hs=h_grid, memoryful=True)
    return [_assemble_report(_gap_points(h_grid, memoryful, runs), runs) for runs in approx]


def defect_sweep(config: RunConfig, h_grid: Sequence[float]):
    """Sup over n of the one-step defect per h; returns (report, {h: defects}).
    The second-order runs of every h run as one stack, and the defect reads
    each run that stayed in the domain."""
    h_grid = [float(h) for h in h_grid]
    loss = loss_from_config(config.loss_id, config.loss_params, config.dimension, config.seed)
    runs, = run_memoryless(config, [MemorylessKind.second()], loss=loss, hs=h_grid)
    points, details = [], {}
    for h, run in zip(h_grid, runs):
        if run.domain_exit is not None:
            points.append(SweepPoint(h=h, metric=float("nan"), valid=False,
                                     note="domain-exit"))
            details[h] = np.array([])
            continue
        details[h] = one_step_defect(config.optimizer, loss, run)
        points.append(SweepPoint(h=h, metric=float(np.max(details[h]))))
    return _assemble_report(points, runs), details


def trajectory_closeness(config: RunConfig, h_list: Sequence[float]) -> dict:
    """Per-step inf-norm gaps of the second- and first-order memoryless runs
    against the memoryful trajectory, for each h, with the correction the
    second-order runs take; the three kinds over every h run as one lockstep
    stack."""
    h_list = [float(h) for h in h_list]
    stack = run_memoryless(config, [MemorylessKind.second(), MemorylessKind.first()],
                           hs=h_list, memoryful=True)
    out = {}
    for h, full, second, first in zip(h_list, *stack):
        m = min(len(full), len(second), len(first))
        gap2 = np.max(np.abs(full.iterates[:m] - second.iterates[:m]), axis=1)
        gap1 = np.max(np.abs(full.iterates[:m] - first.iterates[:m]), axis=1)
        out[h] = {
            "n": np.arange(m),
            "t": np.arange(m) * h,
            "gap_second": gap2,
            "gap_first": gap1,
            "domain_exit": [t.domain_exit for t in (full, second, first)],
            "correction": _correction(second),
        }
    return out


def ordering_fraction(closeness_for_h: dict, n_burn: int) -> float:
    """Fraction of post-burn-in steps at which the second-order gap does not
    exceed the first-order gap."""
    gap2 = closeness_for_h["gap_second"]
    gap1 = closeness_for_h["gap_first"]
    if len(gap2) <= n_burn:
        raise ValueError("burn-in longer than the trajectory")
    sel = slice(n_burn, None)
    return float(np.mean(gap2[sel] <= gap1[sel]))
