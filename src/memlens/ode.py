"""Modified-equation construction: the drift G1 and the first-order
correction field G2 (memory term plus discretization term) of
theta' = G1 + h*G2, its integration with classical fourth-order Runge-Kutta,
and the discrete-versus-continuous gap swept over h.

G1 = -F, where F is the large-n contracted update, and
G2 = -(c/h + grad(G1) G1 / 2), where c is the large-n memory correction.  Both
terms of G2 are Jacobian-vector products along F through the momentum slots,
with per-slot weights lag_scales (c/h) and limit_scales (grad(F) F), so one
grad and one hvp give F and G2 together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import OptimizerSpec, ParamVector, RunConfig, as_param_vector, floor_steps
from .harness import SweepPoint, SweepReport, _assemble_report, n_burn_steps
from .losses import LossModel, loss_from_config
from .memoryful import momentum_form, run_memoryful
from .memoryless import CorrectionVariant, MemorylessKind, run_memoryless

DT_RATIO_DEFAULT = 8  # dt = h / DT_RATIO_DEFAULT
# discrete sides of compare_discrete_vs_ode; the first is the default
ODE_TARGETS = ("memoryless-asymptotic", "memoryless-finite-n", "memoryful")


@dataclass(eq=False)
class ModifiedODE:
    """theta' = G1(theta) + h*G2(theta), matching one discrete step to third
    order in h.  field(theta) returns (G1, G2) from one evaluation at a
    validated parameter vector; G1 and G2 validate their argument, rhs (the
    integrator's hot path) does not."""

    field: Callable[[ParamVector], Tuple[np.ndarray, np.ndarray]]
    h: float
    meta: dict = dc_field(default_factory=dict)

    def G1(self, theta: ParamVector) -> np.ndarray:
        return self.field(as_param_vector(theta))[0]

    def G2(self, theta: ParamVector) -> np.ndarray:
        return self.field(as_param_vector(theta))[1]

    def rhs(self, theta: ParamVector) -> np.ndarray:
        g1, g2 = self.field(theta)
        return g1 + self.h * g2


def build_modified_ode(spec: OptimizerSpec, loss: LossModel) -> ModifiedODE:
    """G1 = -F and G2 = -(c/h + grad(G1) G1 / 2), with F the large-n
    contracted update and c the large-n memory correction, taken from the
    momentum form in one pass: one grad and one hvp give F and, since
    limit_jvp is linear in its slot weights, G2 = -limit_jvp with weights
    lag_scales + limit_scales / 2."""
    form = momentum_form(spec)
    scales = tuple(a + 0.5 * b for a, b in zip(form.lag_scales, form.limit_scales))

    def field(theta):
        F, jvp = form.limit_jvp(loss, theta, loss.grad(theta), scales)
        return -F, -jvp

    return ModifiedODE(field=field, h=spec.h, meta={"kind": spec.kind.value})


def integrate_rk4(odesys: ModifiedODE, theta0: ParamVector, T: float,
                  dt: Optional[float] = None, domain_radius: float = math.inf,
                  include_g2: bool = True) -> np.ndarray:
    """Classical 4-stage Runge-Kutta; returns iterates sampled at t = n*h.

    dt must be at most h/4 so integrator error stays far below the O(h^2)
    quantities being compared; it is rounded down to divide h exactly.
    """
    h = odesys.h
    if dt is None:
        dt = h / DT_RATIO_DEFAULT
    if dt > h / 4.0:
        raise ValueError("dt must be <= h/4")
    substeps = max(4, int(math.ceil(h / dt - 1e-12)))
    dt = h / substeps
    rhs = odesys.rhs if include_g2 else (lambda th: odesys.field(th)[0])

    theta = np.array(as_param_vector(theta0), copy=True)
    n_samples = floor_steps(T, h)
    out = np.empty((n_samples + 1, theta.size))
    out[0] = theta
    for n in range(n_samples):
        for _ in range(substeps):
            k1 = rhs(theta)
            k2 = rhs(theta + 0.5 * dt * k1)
            k3 = rhs(theta + 0.5 * dt * k2)
            k4 = rhs(theta + dt * k3)
            theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) >= domain_radius:
            raise ValueError(f"flow left the domain near t = {(n + 1) * h}")
        out[n + 1] = theta
    return out


def compare_discrete_vs_ode(config: RunConfig, h_grid: Sequence[float],
                            include_g2: bool = True, dt_ratio: int = DT_RATIO_DEFAULT,
                            target: str = ODE_TARGETS[0]) -> SweepReport:
    """max_n || theta_discrete^(n) - theta(n h) ||_inf per h with a fitted slope.

    The default discrete target is the autonomous memoryless iteration with
    large-n coefficients, the iteration the ODE actually models; "memoryful"
    and "memoryless-finite-n" targets are also available (their n-dependent
    early coefficients are excluded via a burn-in cutoff but still leave an
    O(h) offset, so only the default is slope-gated).
    """
    points = []
    loss = loss_from_config(config.loss_id, config.loss_params,
                            config.dimension, config.seed)
    for h in h_grid:
        h = float(h)
        cfg = config.with_optimizer(config.optimizer.with_h(h))
        ode = build_modified_ode(cfg.optimizer, loss)
        try:
            flow = integrate_rk4(ode, cfg.initial_theta(), cfg.horizon,
                                 dt=h / dt_ratio, domain_radius=loss.domain_radius,
                                 include_g2=include_g2)
        except ValueError:
            points.append(SweepPoint(h=h, metric=float("nan"), valid=False, note="domain-exit"))
            continue
        if target == "memoryless-asymptotic":
            disc = run_memoryless(cfg, MemorylessKind.second(CorrectionVariant.ASYMPTOTIC),
                                  loss=loss)
            n_burn = 0
        elif target == "memoryless-finite-n":
            disc = run_memoryless(cfg, MemorylessKind.second(), loss=loss)
            n_burn = n_burn_steps(cfg.optimizer, tol=1e-12)
        elif target == "memoryful":
            disc = run_memoryful(cfg, loss=loss)
            n_burn = n_burn_steps(cfg.optimizer, tol=1e-12)
        else:
            raise ValueError(f"unknown target: {target!r}")
        if disc.domain_exit is not None:
            points.append(SweepPoint(h=h, metric=float("nan"), valid=False, note="domain-exit"))
            continue
        m = min(len(disc), flow.shape[0])
        if n_burn >= m:
            points.append(SweepPoint(h=h, metric=float("nan"), valid=False, note="burn-in"))
            continue
        gap = np.max(np.abs(disc.iterates[n_burn:m] - flow[n_burn:m]))
        points.append(SweepPoint(h=h, metric=float(gap)))
    meta = {"experiment": "ode-compare", "kind": config.optimizer.kind.value,
            "target": target, "include_g2": include_g2, "dt_ratio": dt_ratio}
    return _assemble_report(points, meta)
