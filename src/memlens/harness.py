"""Experiment drivers: h-sweeps of the global memoryful/memoryless error,
one-step defect sweeps, per-step trajectory-closeness traces, and log-log
slope fitting with a rounding-noise floor.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import OptimizerSpec, RunConfig
from .losses import loss_from_config
from .memoryful import momentum_form, run_memoryful
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
    intercept: float
    r2: float
    status: str  # "ok" | "degenerate"
    metadata: dict = field(default_factory=dict)

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


def _assemble_report(points: List[SweepPoint], metadata: dict) -> SweepReport:
    nan = float("nan")
    report = SweepReport(points=sorted(points, key=lambda p: -p.h), slope=nan,
                         intercept=nan, r2=nan, status="degenerate", metadata=metadata)
    usable = [(p.h, p.metric) for p in report.fitted_points()]
    if len(usable) >= 3:
        report.slope, report.intercept, report.r2 = fit_loglog(usable)
        report.status = "ok"
    return report


def n_burn_steps(spec: OptimizerSpec, tol: float = 1e-10) -> int:
    """Steps until every n-dependent coefficient is within tol of its limit."""
    betas = [s.beta for s in momentum_form(spec).slots if s.beta > 0.0]
    if not betas:
        return 0
    return int(math.ceil(math.log(tol) / math.log(max(betas))))


def _global_error_point(config: RunConfig, h: float, kind: MemorylessKind) -> SweepPoint:
    cfg = config.with_optimizer(config.optimizer.with_h(h))
    loss = loss_from_config(cfg.loss_id, cfg.loss_params, cfg.dimension, cfg.seed)
    full = run_memoryful(cfg, loss=loss)
    approx = run_memoryless(cfg, kind, loss=loss)
    if full.domain_exit is not None or approx.domain_exit is not None:
        return SweepPoint(h=h, metric=float("nan"), valid=False, note="domain-exit")
    m = min(len(full), len(approx))
    gap = np.max(np.abs(full.iterates[:m] - approx.iterates[:m]))
    return SweepPoint(h=h, metric=float(gap))


def global_error_sweep(config: RunConfig, h_grid: Sequence[float],
                       kind: MemorylessKind, jobs: int = 1) -> SweepReport:
    """max_n || theta^(n) - theta~(n) ||_inf per h, from identical theta^(0),
    with the fitted log-log slope."""
    h_grid = [float(h) for h in h_grid]
    if len(h_grid) < 5:
        raise ValueError("h_grid needs at least 5 points")
    if max(h_grid) / min(h_grid) < 30.0:
        raise ValueError("h_grid should span at least a factor of 30")
    points = _map_points(_global_error_point, [(config, h, kind) for h in h_grid], jobs)
    meta = {"experiment": "global-error", "order": kind.order.value,
            "variant": kind.variant.value, "kind": config.optimizer.kind.value}
    return _assemble_report(points, meta)


def _defect_point(config: RunConfig, h: float, n_max: Optional[int]):
    cfg = config.with_optimizer(config.optimizer.with_h(h))
    loss = loss_from_config(cfg.loss_id, cfg.loss_params, cfg.dimension, cfg.seed)
    traj = run_memoryless(cfg, MemorylessKind.second(), loss=loss)
    if traj.domain_exit is not None:
        return SweepPoint(h=h, metric=float("nan"), valid=False, note="domain-exit"), np.array([])
    defects = one_step_defect(cfg, n_max=n_max, loss=loss, trajectory=traj)
    return SweepPoint(h=h, metric=float(np.max(defects))), defects


def defect_sweep(config: RunConfig, h_grid: Sequence[float],
                 n_max: Optional[int] = None, jobs: int = 1):
    """Sup over n of the one-step defect per h; returns (report, {h: defects})."""
    h_grid = [float(h) for h in h_grid]
    results = _map_points(_defect_point, [(config, h, n_max) for h in h_grid], jobs)
    points = [r[0] for r in results]
    details = {p.h: r[1] for p, r in zip(points, results)}
    meta = {"experiment": "defect", "kind": config.optimizer.kind.value}
    return _assemble_report(points, meta), details


def trajectory_closeness(config: RunConfig, h_list: Sequence[float]) -> dict:
    """Per-step inf-norm gaps of the second- and first-order memoryless runs
    against the memoryful trajectory, for each h."""
    out = {}
    for h in h_list:
        cfg = config.with_optimizer(config.optimizer.with_h(float(h)))
        loss = loss_from_config(cfg.loss_id, cfg.loss_params, cfg.dimension, cfg.seed)
        full = run_memoryful(cfg, loss=loss)
        second = run_memoryless(cfg, MemorylessKind.second(), loss=loss)
        first = run_memoryless(cfg, MemorylessKind.first(), loss=loss)
        m = min(len(full), len(second), len(first))
        gap2 = np.max(np.abs(full.iterates[:m] - second.iterates[:m]), axis=1)
        gap1 = np.max(np.abs(full.iterates[:m] - first.iterates[:m]), axis=1)
        out[float(h)] = {
            "n": np.arange(m),
            "t": np.arange(m) * float(h),
            "gap_second": gap2,
            "gap_first": gap1,
            "domain_exit": [t.domain_exit for t in (full, second, first)],
        }
    out["n_burn"] = n_burn_steps(config.optimizer)
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


def _call_point(args):
    fn, rest = args
    return fn(*rest)


def _map_points(fn, argtuples, jobs: int):
    if jobs <= 1 or len(argtuples) <= 1:
        return [fn(*args) for args in argtuples]
    with ProcessPoolExecutor(max_workers=min(jobs, len(argtuples))) as pool:
        return list(pool.map(_call_point, [(fn, args) for args in argtuples]))
