"""Modified-equation construction: the drift G1 and the first-order
correction field G2 (memory term plus discretization term) of
theta' = G1 + h*G2, its integration with classical fourth-order Runge-Kutta,
and the discrete-versus-continuous gap swept over h.

G1 = -F, where F is the large-n contracted update, and
G2 = -(c/h + grad(G1) G1 / 2), where c is the large-n memory correction.  Both
terms of G2 are the momentum slots' Jacobian applied to the one window F,
with per-slot weights lag_scales (c/h) and limit_scales / 2 (grad(F) F / 2),
so one MomentumForm.jvp_pass (one grad, one hvp) gives F and G2 together.
That Jacobian is linear in its weights, so the right-hand side
G1 + h*G2 = jvp(-h * weights) - F is one pass with h (a per-row column for a
stack of flows) and the sign folded into the slot weights: no separate G2,
no h*G2 product and no negation.  The RK4 constants dt, dt/2 and dt/6 are
per-row columns, computed once per set of rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Sequence, Union

import numpy as np

from .core import OptimizerSpec, ParamVector, RunConfig
from .harness import SweepReport, _assemble_report, _gap_points, n_burn_steps
from .losses import LossModel, loss_from_config
from .memoryful import MomentumForm, drive, momentum_form, stack_spec
from .memoryless import CorrectionVariant, MemorylessKind, run_memoryless

DT_RATIO_DEFAULT = 8  # RK4 substeps per h
# discrete sides of compare_discrete_vs_ode; the first is the default
ODE_TARGETS = ("memoryless-asymptotic", "memoryless-finite-n", "memoryful")


@dataclass(eq=False)
class ModifiedODE:
    """theta' = G1(theta) + h*G2(theta) of a momentum form, matching one
    discrete step to third order in h.  rhs(theta), the integrator's hot
    path, returns G1 + h*G2 from one grad and one hvp, row-wise over a (B, d)
    stack; h is a float, or the (B, 1) column of a stack of flows.  Its pass,
    with -h folded into the G2 slot weights, is resolved when the ODE is made
    and again by dataclasses.replace, which a stack uses as rows leave.
    field(theta) returns (G1, G2) through a pass it builds when called."""

    form: MomentumForm
    loss: LossModel
    h: Union[float, np.ndarray]
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        c = self.form.limit_scales
        self._weights = tuple(a + 0.5 * b for a, b in zip(self.form.lag_scales, c))
        self._flow = self.form.jvp_pass(c, tuple(-self.h * w for w in self._weights))

    def field(self, theta: ParamVector):
        F, jvp = self.form.jvp_pass(self.form.limit_scales, self._weights)(
            self.loss, theta, self.loss.grad(theta))
        return -F, -jvp

    def rhs(self, theta: ParamVector) -> np.ndarray:
        F, jvp = self._flow(self.loss, theta, self.loss.grad(theta))
        return jvp - F


def build_modified_ode(spec: OptimizerSpec, loss: LossModel) -> ModifiedODE:
    """The modified equation of spec's momentum form on loss.  Its G2 weights
    do not depend on h, so a spec whose h is a column gives the flows of a
    stack."""
    return ModifiedODE(momentum_form(spec), loss, spec.h, {"kind": spec.kind.value})


def integrate_rk4(config: RunConfig, loss: LossModel, odesys: ModifiedODE,
                  dt_ratio: int = DT_RATIO_DEFAULT, include_g2: bool = True):
    """Classical 4-stage Runge-Kutta from theta^(0), dt_ratio substeps of
    dt = h / dt_ratio per sample, sampled at t = n*h by memoryful.drive: one
    sample is one step, so a flow ends and leaves the domain by the driver's
    rules.  odesys.h is config.optimizer.h (one flow, a Trajectory), or the
    (B, 1) column of a stack (a list with one Trajectory per row).  The
    stage constants dt, dt/2 and dt/6 are then per-row columns, computed
    once and again only when rows leave the stack.  Without include_g2 the
    flow is theta' = G1 = -F, one grad and no hvp per stage."""
    if dt_ratio < 4:  # integrator error must stay far below the O(h^2) gaps
        raise ValueError(f"dt_ratio must be >= 4, got {dt_ratio}")

    def stages(ode):
        dt = ode.h / dt_ratio
        rhs = ode.rhs if include_g2 else lambda th: -ode.form.contracted_F(ode.loss, th, None)
        return rhs, dt, 0.5 * dt, dt / 6.0

    ode = odesys  # rebound as rows leave, with the stage constants
    rhs, dt, half, sixth = stages(ode)

    def step(theta, n):
        for _ in range(dt_ratio):
            k1 = rhs(theta)
            k2 = rhs(theta + half * k1)
            k3 = rhs(theta + half * k2)
            k4 = rhs(theta + dt * k3)
            theta = theta + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return theta

    def keep(stay):
        nonlocal ode, rhs, dt, half, sixth
        ode = replace(ode, h=ode.h[stay])
        rhs, dt, half, sixth = stages(ode)

    hs = None if np.ndim(odesys.h) == 0 else np.reshape(odesys.h, -1)
    return drive(config, loss, step, odesys.meta, hs, keep)


def gap_order(spec: OptimizerSpec, target: str) -> int:
    """Order in h of compare_discrete_vs_ode's gap for target: 2, or 1 for an
    offset target whose contracted update depends on n (see there)."""
    if target == ODE_TARGETS[0] or momentum_form(spec).n_independent:
        return 2
    return 1


def compare_discrete_vs_ode(config: RunConfig, h_grid: Sequence[float],
                            include_g2: bool = True, dt_ratio: int = DT_RATIO_DEFAULT,
                            target: str = ODE_TARGETS[0]) -> SweepReport:
    """max_n || theta_discrete^(n) - theta(n h) ||_inf per h with a fitted slope.

    The default discrete target is the autonomous memoryless iteration with
    large-n coefficients, the iteration the ODE actually models; "memoryful"
    and "memoryless-finite-n" targets are also available.  Their n-dependent
    early coefficients are excluded via a burn-in cutoff but still leave an
    offset: O(h), so the gap falls as h, unless every slot with memory is
    bias-corrected, when the contracted update does not depend on n and the
    offset is O(h^2).  The flows of every h run as one RK4 stack, and the
    discrete runs as one lockstep stack.
    """
    kinds = dict(zip(ODE_TARGETS, ([MemorylessKind.second(CorrectionVariant.ASYMPTOTIC)],
                                   [MemorylessKind.second()], [])))  # [] is the memoryful run
    if target not in kinds:
        raise ValueError(f"unknown target: {target!r}")
    loss = loss_from_config(config.loss_id, config.loss_params,
                            config.dimension, config.seed)
    grid = [float(h) for h in h_grid]
    discrete = run_memoryless(config, kinds[target], loss, grid, memoryful=not kinds[target])[0]
    n_burn = 0 if target == ODE_TARGETS[0] else n_burn_steps(config.optimizer, tol=1e-12)
    odesys = build_modified_ode(stack_spec(config.optimizer, grid), loss)
    flows = integrate_rk4(config, loss, odesys, dt_ratio, include_g2)
    return _assemble_report(_gap_points(grid, discrete, flows, n_burn), discrete)
