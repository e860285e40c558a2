"""Modified-equation construction: the drift G1 and the first-order
correction field G2 (memory term plus discretization term) of
theta' = G1 + h*G2, its integration with classical fourth-order Runge-Kutta,
and the discrete-versus-continuous gap swept over h.

G1 = -F, where F is the large-n contracted update, and
G2 = -(c/h + grad(G1) G1 / 2), where c is the large-n memory correction.  Both
terms of G2 are the momentum slots' Jacobian (MomentumForm.slot_jvp) applied
to the one window F, with per-slot weights lag_scales (c/h) and limit_scales
(grad(F) F), so one grad and one hvp give F and G2 together.  That Jacobian is
linear in its weights, so the right-hand side G1 + h*G2 = jvp(-h * weights) - F
is one pass of MomentumForm.limit_pass with h (a per-row column for a stack of
flows) and the sign folded into the slot weights: no separate G2, no h*G2
product and no negation.  The RK4 constants dt, dt/2 and dt/6 are per-row
columns, computed once per set of rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .core import OptimizerSpec, ParamVector, RunConfig
from .harness import SweepReport, _assemble_report, _gap_points, n_burn_steps
from .losses import LossModel, loss_from_config
from .memoryful import MomentumForm, drive, momentum_form, run_memoryful, stack_spec
from .memoryless import CorrectionVariant, MemorylessKind, run_memoryless

DT_RATIO_DEFAULT = 8  # RK4 substeps per h
# discrete sides of compare_discrete_vs_ode; the first is the default
ODE_TARGETS = ("memoryless-asymptotic", "memoryless-finite-n", "memoryful")


@dataclass(eq=False)
class ModifiedODE:
    """theta' = G1(theta) + h*G2(theta), matching one discrete step to third
    order in h.  field(theta) returns (G1, G2) from one evaluation at a
    validated parameter vector, row-wise over a (B, d) stack; rhs is the
    integrator's hot path.  h is a float, or the (B, 1) column of a stack of
    flows.  A field built by build_modified_ode also gives rhs in one pass,
    with h folded into its slot weights when the ODE is made (and again by
    dataclasses.replace, which a stack uses as rows leave); for any other
    field rhs is G1 + h*G2."""

    field: Callable[[ParamVector], Tuple[np.ndarray, np.ndarray]]
    h: Union[float, np.ndarray]
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self._flow = self.field.flow(self.h) if isinstance(self.field, _FormField) else None

    def rhs(self, theta: ParamVector) -> np.ndarray:
        if self._flow is not None:
            return self._flow(theta)
        g1, g2 = self.field(theta)
        return g1 + self.h * g2


@dataclass(frozen=True)
class _FormField:
    """The field of a momentum form: G1 = -F and G2 = -limit_jvp(F) with the
    slot weights scales, so flow(h) is G1 + h*G2 = limit_jvp(-h * scales) - F,
    one grad and one hvp per call."""

    form: MomentumForm
    loss: LossModel
    scales: Tuple[float, ...]

    def __call__(self, theta):
        F, jvp = self.form.limit_jvp(self.loss, theta, self.loss.grad(theta), self.scales)
        return -F, -jvp

    def flow(self, h):
        limit_pass, loss = self.form.limit_pass(tuple(-h * s for s in self.scales)), self.loss

        def rhs(theta):
            F, jvp = limit_pass(loss, theta, loss.grad(theta))
            return jvp - F
        return rhs


def build_modified_ode(spec: OptimizerSpec, loss: LossModel) -> ModifiedODE:
    """G1 = -F and G2 = -(c/h + grad(G1) G1 / 2), with F the large-n
    contracted update and c the large-n memory correction, taken from the
    momentum form in one pass: one grad and one hvp give F and, since
    limit_jvp (slot_jvp on the window F) is linear in its slot weights,
    G2 = -limit_jvp with weights lag_scales + limit_scales / 2.  Neither
    depends on h, so a spec whose h is a column gives the flows of a stack;
    rhs folds h into those weights."""
    form = momentum_form(spec)
    scales = tuple(a + 0.5 * b for a, b in zip(form.lag_scales, form.limit_scales))
    return ModifiedODE(field=_FormField(form, loss, scales), h=spec.h,
                       meta={"kind": spec.kind.value})


def integrate_rk4(config: RunConfig, loss: LossModel, odesys: ModifiedODE,
                  dt_ratio: int = DT_RATIO_DEFAULT, include_g2: bool = True):
    """Classical 4-stage Runge-Kutta from theta^(0), dt_ratio substeps of
    dt = h / dt_ratio per sample, sampled at t = n*h by memoryful.drive: one
    sample is one step, so a flow ends and leaves the domain by the driver's
    rules.  odesys.h is config.optimizer.h (one flow, a Trajectory), or the
    (B, 1) column of a stack (a list with one Trajectory per row).  The
    stage constants dt, dt/2 and dt/6 are then per-row columns, computed
    once and again only when rows leave the stack."""
    if dt_ratio < 4:  # integrator error must stay far below the O(h^2) gaps
        raise ValueError(f"dt_ratio must be >= 4, got {dt_ratio}")

    def stages(ode):
        dt = ode.h / dt_ratio
        return (ode.rhs if include_g2 else lambda th: ode.field(th)[0]), dt, 0.5 * dt, dt / 6.0

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
    odesys = build_modified_ode(stack_spec(config.optimizer, grid), loss)
    flows = integrate_rk4(config, loss, odesys, dt_ratio, include_g2)
    return _assemble_report(_gap_points(grid, discrete, flows, n_burn), discrete)
