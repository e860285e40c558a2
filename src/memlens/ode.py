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
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .core import OptimizerSpec, ParamVector, RunConfig, as_param_vector, floor_steps
from .harness import SweepPoint, SweepReport, _assemble_report, n_burn_steps
from .losses import LossModel, loss_from_config
from .memoryful import momentum_form, run_memoryful, stack_spec
from .memoryless import CorrectionVariant, MemorylessKind, run_memoryless

DT_RATIO_DEFAULT = 8  # dt = h / DT_RATIO_DEFAULT
# discrete sides of compare_discrete_vs_ode; the first is the default
ODE_TARGETS = ("memoryless-asymptotic", "memoryless-finite-n", "memoryful")


@dataclass(eq=False)
class ModifiedODE:
    """theta' = G1(theta) + h*G2(theta), matching one discrete step to third
    order in h.  field(theta) returns (G1, G2) from one evaluation at a
    validated parameter vector, row-wise over a (B, d) stack; G1 and G2
    validate their argument, rhs (the integrator's hot path) does not.  h is
    a float, or the (B, 1) column of a stack of flows."""

    field: Callable[[ParamVector], Tuple[np.ndarray, np.ndarray]]
    h: Union[float, np.ndarray]
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
    lag_scales + limit_scales / 2.  Neither depends on h, so a spec whose h
    is a column gives the flows of a stack."""
    form = momentum_form(spec)
    scales = tuple(a + 0.5 * b for a, b in zip(form.lag_scales, form.limit_scales))

    def field(theta):
        F, jvp = form.limit_jvp(loss, theta, loss.grad(theta), scales)
        return -F, -jvp

    return ModifiedODE(field=field, h=spec.h, meta={"kind": spec.kind.value})


def integrate_rk4(odesys: ModifiedODE, theta0: ParamVector, T: float,
                  dt: Union[float, np.ndarray, None] = None,
                  domain_radius: float = math.inf, include_g2: bool = True):
    """Classical 4-stage Runge-Kutta; returns iterates sampled at t = n*h.

    dt must be at most h/4 so integrator error stays far below the O(h^2)
    quantities being compared; it is rounded down to divide h exactly.  With
    odesys.h a float the one flow from theta0 is returned as an array, and a
    flow that leaves the domain raises ValueError.  With odesys.h a (B, 1)
    column, and dt a matching column, every row of a stack starts at theta0
    and takes the same number of substeps per sample, so samples line up;
    row i is sampled floor(T/h_i) times and then leaves the stack, as does a
    row whose flow leaves the domain.  The result is a list with the samples
    of each row, None for a row that left the domain.
    """
    h = odesys.h
    if dt is None:
        dt = h / DT_RATIO_DEFAULT
    if np.any(dt > h / 4.0):
        raise ValueError("dt must be <= h/4")
    substeps = max(4, int(math.ceil(float(np.max(h / dt)) - 1e-12)))
    dt = h / substeps
    ode = odesys  # rebound as rows leave
    rhs = (lambda th: ode.rhs(th)) if include_g2 else (lambda th: ode.field(th)[0])

    theta0 = as_param_vector(theta0)
    hs = np.reshape(h, -1)
    ends = np.array([floor_steps(T, float(x)) for x in hs])
    flows = [np.empty((e + 1, theta0.size)) for e in ends]
    for flow in flows:
        flow[0] = theta0
    theta = np.repeat(theta0[None, :], hs.size, axis=0)
    rows = np.arange(hs.size)

    def leave(stay):
        nonlocal rows, theta, ode, dt
        rows, theta = rows[stay], theta[stay]
        if rows.size:
            ode, dt = replace(ode, h=ode.h[stay]), dt[stay]

    n = 0
    while True:
        stay = ends[rows] > n
        if not stay.all():
            leave(stay)
        if not rows.size:
            break
        for _ in range(substeps):
            k1 = rhs(theta)
            k2 = rhs(theta + 0.5 * dt * k1)
            k3 = rhs(theta + 0.5 * dt * k2)
            k4 = rhs(theta + dt * k3)
            theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        n += 1
        inside = np.abs(theta).max(axis=1) < domain_radius  # False on NaN
        if not inside.all():
            if np.ndim(h) == 0:
                raise ValueError(f"flow left the domain near t = {n * h}")
            for i in rows[~inside]:
                flows[i] = None
            leave(inside)
        for p, i in enumerate(rows):
            flows[i][n] = theta[p]
    return flows if np.ndim(h) else flows[0]


def compare_discrete_vs_ode(config: RunConfig, h_grid: Sequence[float],
                            include_g2: bool = True, dt_ratio: int = DT_RATIO_DEFAULT,
                            target: str = ODE_TARGETS[0]) -> SweepReport:
    """max_n || theta_discrete^(n) - theta(n h) ||_inf per h with a fitted slope.

    The default discrete target is the autonomous memoryless iteration with
    large-n coefficients, the iteration the ODE actually models; "memoryful"
    and "memoryless-finite-n" targets are also available (their n-dependent
    early coefficients are excluded via a burn-in cutoff but still leave an
    O(h) offset, so their gap falls as h, not h^2).  The flows of every h
    run as one RK4 stack, and the discrete runs as one lockstep stack.
    """
    loss = loss_from_config(config.loss_id, config.loss_params,
                            config.dimension, config.seed)
    grid = [float(h) for h in h_grid]
    if target == "memoryless-asymptotic":
        discrete = run_memoryless(config, MemorylessKind.second(CorrectionVariant.ASYMPTOTIC),
                                  loss=loss, hs=grid)
        n_burn = 0
    elif target == "memoryless-finite-n":
        discrete = run_memoryless(config, MemorylessKind.second(), loss=loss, hs=grid)
        n_burn = n_burn_steps(config.optimizer, tol=1e-12)
    elif target == "memoryful":
        discrete = run_memoryful(config, loss=loss, hs=grid)
        n_burn = n_burn_steps(config.optimizer, tol=1e-12)
    else:
        raise ValueError(f"unknown target: {target!r}")
    spec = stack_spec(config.optimizer, grid)
    flows = integrate_rk4(build_modified_ode(spec, loss), config.initial_theta(),
                          config.horizon, dt=spec.h / dt_ratio,
                          domain_radius=loss.domain_radius, include_g2=include_g2)
    points = []
    for h, flow, disc in zip(grid, flows, discrete):
        if flow is None or disc.domain_exit is not None:
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
