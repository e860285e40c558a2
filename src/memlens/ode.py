"""Modified-equation construction: assemble the drift G1 and the first-order
correction field G2 (memory term plus discretization term), integrate
theta' = G1 + h*G2 with classical fourth-order Runge-Kutta, and sweep the
discrete-versus-continuous gap over h.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import OptimizerSpec, ParamVector, RunConfig, as_param_vector, floor_steps
from .correction import correction_closed
from .harness import SweepPoint, SweepReport, _assemble_report, n_burn_steps
from .losses import LossModel, loss_from_config
from .memoryful import momentum_form, run_memoryful
from .memoryless import CorrectionVariant, MemorylessKind, run_memoryless

DT_RATIO_DEFAULT = 8  # dt = h / DT_RATIO_DEFAULT


@dataclass(eq=False)
class ModifiedODE:
    """Right-hand side G1(theta) + h*G2(theta) matching one discrete step to
    third order in h."""

    G1: Callable[[ParamVector], np.ndarray]
    G2: Callable[[ParamVector], np.ndarray]
    h: float
    meta: dict = field(default_factory=dict)

    def rhs(self, theta: ParamVector) -> np.ndarray:
        return self.G1(theta) + self.h * self.G2(theta)


def build_modified_ode(spec: OptimizerSpec, loss: LossModel,
                       jacobian: str = "analytic", fd_step: float = 1e-6) -> ModifiedODE:
    """G1 = -(large-n contracted update); G2 = -(correction/h + grad(G1) G1 / 2).

    The Jacobian-vector term is derived from the momentum form (one hvp), or
    taken by central differences of G1 when jacobian="fd".
    """
    form = momentum_form(spec)

    def F_limit(theta, g=None):
        return form.contracted_F(loss, theta, None, g)

    def G1(theta):
        return -F_limit(as_param_vector(theta))

    def jac_g1_g1(theta, g):
        if jacobian == "analytic":
            return form.limit_jvp(loss, theta, g, form.limit_scales)
        if jacobian == "fd":
            # grad(G1) G1 = -d/dt G1(theta + t F)|_0 since G1 = -F
            F = F_limit(theta, g)
            plus = F_limit(theta + fd_step * F)
            minus = F_limit(theta - fd_step * F)
            return (plus - minus) / (2.0 * fd_step)
        raise ValueError(f"unknown jacobian mode: {jacobian!r}")

    def G2(theta):
        theta = as_param_vector(theta)
        g = loss.grad(theta)
        c = correction_closed(spec, loss, theta, None).vector
        return -(c / spec.h + 0.5 * jac_g1_g1(theta, g))

    return ModifiedODE(G1=G1, G2=G2, h=spec.h,
                       meta={"kind": spec.kind.value, "jacobian": jacobian})


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
    rhs = odesys.rhs if include_g2 else odesys.G1

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
                            target: str = "memoryless-asymptotic") -> SweepReport:
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
