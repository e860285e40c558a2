"""Lockstep stacks: each row of a (B, d) stack of runs that share the step
index and differ in h equals its single-row run, a row leaves the stack by
drive's exit rules without disturbing the others, and a stacked step calls
only the oracles it reads."""
from collections import Counter

import numpy as np
import pytest

from memlens import (OptimizerSpec, RunConfig, build_modified_ode, integrate_rk4,
                     run_memoryful, run_memoryless, step_state)
from memlens.core import floor_steps
from memlens.losses import loss_from_config
from memlens.memoryful import MomentumState, drive, momentum_form, stack_spec
from memlens.memoryless import CorrectionVariant, MemorylessKind

from conftest import counting_loss, limit_specs, rel_linf

HS = [4e-3, 2e-3, 1e-3]
FIXTURES = {"quadratic": ({"eig_min": 0.5, "eig_max": 2.0}, 4),
            "logistic": ({"points": 40, "ridge": 0.01}, 6)}
RUNS = {
    "memoryful": lambda cfg, loss, hs=None: run_memoryful(cfg, loss=loss, hs=hs),
    "first": lambda cfg, loss, hs=None: run_memoryless(
        cfg, MemorylessKind.first(), loss=loss, hs=hs),
    "second-finite-n": lambda cfg, loss, hs=None: run_memoryless(
        cfg, MemorylessKind.second(), loss=loss, hs=hs),
    "second-asymptotic": lambda cfg, loss, hs=None: run_memoryless(
        cfg, MemorylessKind.second(CorrectionVariant.ASYMPTOTIC), loss=loss, hs=hs),
}


def spec_id(spec):
    return f"{spec.kind.value}-bc{int(spec.bias_correction)}"


def fixture_config(loss_id, spec, T=0.2):
    # theta^(0) far from the minimizer keeps every gradient component away
    # from zero over the horizon.  Where one nears zero, the adaptive steps
    # with small eps are chaotic: a single NAdamW run without bias correction
    # on the quadratic turns a 1e-14 relative change of theta^(0) into 1e-3,
    # so no two evaluation orders of the same arithmetic agree there.
    params, d = FIXTURES[loss_id]
    cfg = RunConfig(seed=3, dimension=d, horizon=T, loss_id=loss_id, loss_params=params,
                    optimizer=spec, theta0_scale=4.0)
    return cfg, loss_from_config(loss_id, params, d, 3)


def with_h(cfg, h):
    return cfg.with_optimizer(cfg.optimizer.with_h(h))


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("loss_id", sorted(FIXTURES))
@pytest.mark.parametrize("spec", limit_specs(), ids=spec_id)
def test_stacked_row_equals_single_run(spec, loss_id, run):
    cfg, loss = fixture_config(loss_id, spec)
    stacked = RUNS[run](cfg, loss, HS)
    assert [row.h for row in stacked] == HS
    for h, row in zip(HS, stacked):
        single = RUNS[run](with_h(cfg, h), loss)
        assert row.domain_exit is None and single.domain_exit is None
        assert len(row) == len(single) == floor_steps(cfg.horizon, h) + 1
        assert rel_linf(row.iterates, single.iterates) <= 1e-13
        assert row.meta == single.meta


@pytest.mark.parametrize("loss_id", sorted(FIXTURES))
@pytest.mark.parametrize("spec", limit_specs(), ids=spec_id)
def test_stacked_rk4_rows_equal_single_flows(spec, loss_id):
    cfg, loss = fixture_config(loss_id, spec)
    hs = [1e-2, 5e-3, 2.5e-3]
    theta0 = cfg.initial_theta()
    stacked = stack_spec(spec, hs)
    flows = integrate_rk4(build_modified_ode(stacked, loss), theta0, cfg.horizon,
                          dt=stacked.h / 8)
    for h, flow in zip(hs, flows):
        single = integrate_rk4(build_modified_ode(spec.with_h(h), loss), theta0,
                               cfg.horizon, dt=h / 8)
        assert flow.shape == single.shape == (floor_steps(cfg.horizon, h) + 1, theta0.size)
        assert rel_linf(flow, single) <= 1e-13


def scaling_drive(theta0, factors, hs, radius):
    """drive with a step that multiplies row i by factors[i]; returns the
    trajectories and the masks keep was called with."""
    spec = OptimizerSpec.heavy_ball(0.1, 0.5)
    cfg = RunConfig(seed=0, dimension=1, horizon=1.0, loss_id="quadratic",
                    loss_params={"domain_radius": radius}, optimizer=spec, theta0=(theta0,))
    loss = loss_from_config(cfg.loss_id, cfg.loss_params, 1, 0)
    column = np.array(factors, dtype=float)[:, None]
    masks = []

    def step(theta, n):
        return column * theta

    def keep(stay):
        nonlocal column
        masks.append(stay.tolist())
        column = column[stay]

    return drive(cfg, loss, step, {}, hs=hs, keep=keep), masks


def test_row_leaving_the_domain_spares_the_others():
    # row 1 doubles: 0.25 -> 0.5 -> 1.0 lands on the boundary, which is
    # outside, so it records that iterate and exits at step 2; row 0 ends
    # after its 10 steps and row 2 after its 20
    trajs, masks = scaling_drive(0.25, [0.5, 2.0, 0.9], [0.1, 0.1, 0.05], radius=1.0)
    assert [t.domain_exit for t in trajs] == [None, 2, None]
    assert trajs[1].iterates.tolist() == [[0.25], [0.5], [1.0]]
    assert len(trajs[1].loss_values) == 3
    assert masks == [[True, False, True], [False, True]]
    for t, f, steps in zip(trajs, (0.5, 2.0, 0.9), (10, 2, 20)):
        alone, _ = scaling_drive(0.25, [f], [t.h], radius=1.0)
        assert alone[0].domain_exit == t.domain_exit
        assert np.array_equal(alone[0].iterates, t.iterates)
        assert len(t) == steps + 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_row_exits_unrecorded_and_spares_the_others():
    # row 1 overflows to inf at step 2: exit 2, the inf iterate not recorded
    trajs, masks = scaling_drive(0.25, [0.5, 1e200, 0.9], [0.1, 0.1, 0.1],
                                 radius=float("inf"))
    assert [t.domain_exit for t in trajs] == [None, 2, None]
    assert trajs[1].iterates.tolist() == [[0.25], [2.5e199]]
    assert masks == [[True, False, True]]
    for t, f in zip(trajs[::2], (0.5, 0.9)):
        alone, _ = scaling_drive(0.25, [f], [t.h], radius=float("inf"))
        assert len(t) == 11 and np.array_equal(alone[0].iterates, t.iterates)


def test_exiting_rows_of_a_real_run_match_their_single_runs():
    # on a tight domain the two largest steps leave it at different steps
    cfg = RunConfig(seed=7, dimension=2, horizon=30.0, loss_id="quadratic",
                    loss_params={"eig_min": 1.0, "eig_max": 3.0, "domain_radius": 10.0},
                    optimizer=OptimizerSpec.heavy_ball(1.0, 0.9))
    hs = [1.0, 0.5, 0.1, 0.05]
    stacked = run_memoryless(cfg, MemorylessKind.first(), hs=hs)
    assert [t.domain_exit for t in stacked] == [5, 9, None, None]
    for h, row in zip(hs, stacked):
        single = run_memoryless(with_h(cfg, h), MemorylessKind.first())
        assert row.domain_exit == single.domain_exit and len(row) == len(single)
        assert rel_linf(row.iterates, single.iterates) <= 1e-13


@pytest.mark.parametrize("spec", limit_specs(), ids=spec_id)
def test_stacked_memoryful_step_makes_one_grad_and_no_value(spec, quad4, rng):
    counting, counts = counting_loss(quad4)
    stacked = stack_spec(spec, HS)
    theta = rng.standard_normal((len(HS), 4))
    state = MomentumState.fresh(momentum_form(stacked), theta.shape)
    for _ in range(3):
        counts.clear()
        theta, state = step_state(stacked, counting, state, theta)
        assert counts == Counter(grad=1)


def test_runs_call_value_only_when_loss_values_are_read(quad4):
    # one grad per stacked step and no value call while stepping, also for the
    # second-order run (its correction method comes from its first step);
    # reading loss_values makes one value call per trajectory
    counting, counts = counting_loss(quad4)
    cfg = RunConfig(seed=1, dimension=4, horizon=0.2, loss_id="quadratic", loss_params={},
                    optimizer=OptimizerSpec.heavy_ball(1e-2, 0.9))
    hs = [2e-2, 1e-2, 5e-3]
    for run in (RUNS["memoryful"], RUNS["second-finite-n"]):
        counts.clear()
        trajs = run(cfg, counting, hs)
        assert counts["grad"] == floor_steps(cfg.horizon, min(hs)) and counts["value"] == 0
        values = [t.loss_values for t in trajs]
        assert counts["value"] == len(trajs)
        assert [len(v) for v in values] == [len(t) for t in trajs]
    assert trajs[0].meta["correction_method"] == "closed-finite-n"
