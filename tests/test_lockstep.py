"""Lockstep stacks: each row of a (B, d) stack of runs that share the step
index and differ in h (and, in a fused stack, in trajectory kind) equals its
single-row run, a row leaves the stack by drive's exit rules without
disturbing the others, and a stacked step calls only the oracles it reads."""
import dataclasses
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from memlens import (OptimizerSpec, RunConfig, build_modified_ode, integrate_rk4,
                     make_quadratic, memoryful, run_memoryful, run_memoryless)
from memlens.cli import main as cli_main
from memlens.core import floor_steps
from memlens.losses import loss_from_config
from memlens.memoryful import MEMORYFUL, drive, run_stack, stack_spec
from memlens.memoryless import CorrectionVariant, MemorylessKind, one_step_defect

from conftest import counting_loss, limit_specs, rel_linf
from oracles import HistoryBuffer, eval_F_history

HS = [4e-3, 2e-3, 1e-3]
FIXTURES = {"quadratic": ({"eig_min": 0.5, "eig_max": 2.0}, 4),
            "logistic": ({"points": 40, "ridge": 0.01}, 6)}
RUNS = {
    "memoryful": lambda cfg, loss, hs=None: run_memoryful(cfg, loss=loss, hs=hs),
    "first": lambda cfg, loss, hs=None: run_memoryless(
        cfg, [MemorylessKind.first()], loss=loss, hs=hs)[0],
    "second-finite-n": lambda cfg, loss, hs=None: run_memoryless(
        cfg, [MemorylessKind.second()], loss=loss, hs=hs)[0],
    "second-asymptotic": lambda cfg, loss, hs=None: run_memoryless(
        cfg, [MemorylessKind.second(CorrectionVariant.ASYMPTOTIC)], loss=loss, hs=hs)[0],
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
    flows = integrate_rk4(cfg, loss, build_modified_ode(stack_spec(spec, hs), loss))
    for h, flow in zip(hs, flows):
        single = integrate_rk4(with_h(cfg, h), loss, build_modified_ode(spec.with_h(h), loss))
        assert flow.iterates.shape == single.iterates.shape == (floor_steps(cfg.horizon, h) + 1,
                                                                theta0.size)
        assert rel_linf(flow.iterates, single.iterates) <= 1e-13


def test_rk4_row_leaving_the_domain_spares_the_others():
    # at h = 1 the modified heavy-ball flow is stiff enough that RK4 with
    # dt = h/8 blows up; the two small steps stay stable
    cfg = RunConfig(seed=7, dimension=2, horizon=2.0, loss_id="quadratic",
                    loss_params={"eig_min": 1.0, "eig_max": 3.0, "domain_radius": 10.0},
                    optimizer=OptimizerSpec.heavy_ball(1.0, 0.9))
    loss = loss_from_config(cfg.loss_id, cfg.loss_params, cfg.dimension, cfg.seed)
    hs = [1.0, 2e-2, 1e-2]
    flows = integrate_rk4(cfg, loss, build_modified_ode(stack_spec(cfg.optimizer, hs), loss))
    assert flows[0].domain_exit is not None
    for h, flow in zip(hs[1:], flows[1:]):
        single = integrate_rk4(with_h(cfg, h), loss,
                               build_modified_ode(cfg.optimizer.with_h(h), loss))
        assert flow.domain_exit is None and single.domain_exit is None
        assert len(flow) == len(single) == floor_steps(cfg.horizon, h) + 1
        assert rel_linf(flow.iterates, single.iterates) <= 1e-13


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
    stacked, = run_memoryless(cfg, [MemorylessKind.first()], hs=hs)
    assert [t.domain_exit for t in stacked] == [5, 9, None, None]
    for h, row in zip(hs, stacked):
        single, = run_memoryless(with_h(cfg, h), [MemorylessKind.first()])
        assert row.domain_exit == single.domain_exit and len(row) == len(single)
        assert rel_linf(row.iterates, single.iterates) <= 1e-13


DEFECT_SPECS = [
    OptimizerSpec.heavy_ball(1e-3, 0.9),
    OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.1, eps=1e-4),
    OptimizerSpec.lion_k(1e-3, 0.9, 0.95, lam=0.1, eps=1e-4, bias_correction=True),
]


@pytest.mark.parametrize("loss_id", sorted(FIXTURES))
@pytest.mark.parametrize("spec", DEFECT_SPECS, ids=spec_id)
def test_defect_equals_the_history_engine_residual(spec, loss_id):
    # each row of a stacked second-order run: its defects are the residuals
    # of the history engine's F at the recorded iterates.  A defect is
    # theta(n+1) - theta(n) + h F, O(h) terms that cancel to O(h^3), so it is
    # compared relative to the run's largest step: the two engines round F
    # differently, by about 1e-16 of the step
    cfg, loss = fixture_config(loss_id, spec)
    for h, run in zip(HS, RUNS["second-finite-n"](cfg, loss, HS)):
        defects = one_step_defect(spec, loss, run)
        hist, expected = HistoryBuffer(), []
        for n in range(len(run) - 1):
            hist.append(run.iterates[n])
            F = eval_F_history(spec, loss, hist)
            expected.append(np.max(np.abs(run.iterates[n + 1] - run.iterates[n] + h * F)))
        assert len(defects) == floor_steps(cfg.horizon, h)
        step = np.max(np.abs(np.diff(run.iterates, axis=0)))
        assert np.max(np.abs(defects - expected)) <= 1e-13 * step


def test_defect_replay_rejects_a_run_with_a_domain_exit():
    # a run cut short, by a domain exit or otherwise, has no iterates past
    # its end to feed into the memoryful update
    cfg = RunConfig(seed=7, dimension=2, horizon=4.0, loss_id="quadratic",
                    loss_params={"eig_min": 1.0, "eig_max": 3.0, "domain_radius": 10.0},
                    optimizer=OptimizerSpec.heavy_ball(1.0, 0.9))
    loss = loss_from_config(cfg.loss_id, cfg.loss_params, cfg.dimension, cfg.seed)
    runs, = run_memoryless(cfg, [MemorylessKind.second()], loss=loss, hs=[1.0, 0.02])
    assert runs[0].domain_exit is not None and runs[1].domain_exit is None
    with pytest.raises(ValueError, match="domain exit"):
        one_step_defect(cfg.optimizer, loss, runs[0])
    cut = dataclasses.replace(runs[1], iterates=runs[1].iterates[:-1])
    with pytest.raises(ValueError, match="not whole"):
        one_step_defect(cfg.optimizer, loss, cut)
    assert len(one_step_defect(cfg.optimizer, loss, runs[1])) == floor_steps(cfg.horizon, 0.02)


@pytest.mark.parametrize("spec", DEFECT_SPECS, ids=spec_id)
def test_defect_makes_one_grad_call(spec):
    # one grad over the run's iterates feeds every step's memoryful update
    cfg, loss = fixture_config("quadratic", spec)
    run = RUNS["second-finite-n"](cfg, loss)
    counting, counts = counting_loss(loss)
    one_step_defect(spec, counting, run)
    assert counts == Counter(grad=1)


@pytest.mark.parametrize("spec", limit_specs(), ids=spec_id)
def test_stacked_memoryful_step_makes_one_grad_and_no_value(spec, quad4):
    # each step of a memoryful stack adds exactly one grad call
    counting, counts = counting_loss(quad4)
    for steps in (1, 2, 3):
        counts.clear()
        cfg = RunConfig(seed=1, dimension=4, horizon=steps * min(HS), loss_id="quadratic",
                        loss_params={}, optimizer=spec)
        run_memoryful(cfg, counting, HS)
        assert counts == Counter(grad=steps)


def test_runs_call_value_only_when_loss_values_are_read(quad4):
    # one grad per stacked step and no value call while stepping, also for the
    # second-order run (its correction method is resolved with its stack);
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def recording_loss(loss):
    """(loss whose grad and hvp record the rows of every call, {name: rows})."""
    rows = defaultdict(list)

    def recorded(name, fn):
        def wrapper(theta, *rest):
            rows[name].append(len(theta))
            return fn(theta, *rest)
        return wrapper

    return dataclasses.replace(loss, grad=recorded("grad", loss.grad),
                               hvp=recorded("hvp", loss.hvp)), rows


@pytest.mark.parametrize("command,config,sets,kinds,first_hvp", [
    # AdamW's lag-weight route makes its hvp at every step, n = 0 included
    ("closeness", "adam_closeness.cfg", ["run.horizon=0.15"], 3, 0),
    # the heavy-ball bracket makes none at n = 0, the empty sum
    ("sweep", "heavyball_sweep.cfg", [], 3, 1),
])
def test_fused_command_makes_one_grad_per_step(command, config, sets, kinds, first_hvp,
                                               monkeypatch, tmp_path):
    # one grad over the whole stack per lockstep step, and one hvp over the
    # second-order rows alone: none for the memoryful or first-order rows
    made = []

    def counted_loss(*args):
        loss, rows = recording_loss(loss_from_config(*args))
        made.append(rows)
        return loss

    monkeypatch.setattr(memoryful, "loss_from_config", counted_loss)
    argv = [command, "--config", str(CONFIGS / config), "--out-dir", str(tmp_path)]
    assert cli_main(argv + [a for kv in sets for a in ("--set", kv)]) == 0
    assert len(made) == 1  # one stack
    rows = made[0]
    T = 0.15 if sets else 1.0
    ends = [floor_steps(T, h) for h in ((1e-4, 3e-4) if command == "closeness" else
                                         [1e-2 * 2.0 ** -j for j in range(7)])]
    live = [sum(end > n for end in ends) for n in range(max(ends))]
    assert rows["grad"] == [kinds * k for k in live]
    assert rows["hvp"] == live[first_hvp:]


# sweep's stack with order=both and the asymptotic variant: its first-order
# rows take F^(n) and its second-order rows the large-n F, so no single
# weighting of one pass would step both
MIXED = [MEMORYFUL, MemorylessKind.second(CorrectionVariant.ASYMPTOTIC), MemorylessKind.first()]
MIXED_RUNS = ["memoryful", "second-asymptotic", "first"]


@pytest.mark.parametrize("loss_id", sorted(FIXTURES))
@pytest.mark.parametrize("spec", [
    OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.1, eps=1e-4, bias_correction=False),
    OptimizerSpec.heavy_ball(1e-3, 0.9),
], ids=spec_id)
def test_fused_rows_equal_their_one_kind_runs(spec, loss_id):
    cfg, loss = fixture_config(loss_id, spec)
    for rows, run in zip(run_stack(cfg, MIXED, loss, HS), MIXED_RUNS):
        alone = RUNS[run](cfg, loss, HS)
        assert [row.h for row in rows] == HS
        for row, single in zip(rows, alone):
            assert row.domain_exit is None and len(row) == len(single)
            assert rel_linf(row.iterates, single.iterates) <= 1e-12
            assert row.meta == single.meta


@pytest.mark.parametrize("case", ["memoryless-rows-exit", "memoryful-rows-exit"])
def test_a_row_leaving_the_domain_spares_the_other_kinds(case):
    if case == "memoryless-rows-exit":
        # at h lambda in [1, 3] the heavy ball is stable (below 2 (1 + beta)),
        # but its memoryless steps, h / (1 - beta) along the gradient, are not
        cfg = RunConfig(seed=7, dimension=2, horizon=30.0, loss_id="quadratic",
                        loss_params={"eig_min": 1.0, "eig_max": 3.0, "domain_radius": 10.0},
                        optimizer=OptimizerSpec.heavy_ball(1.0, 0.9))
        loss = loss_from_config(cfg.loss_id, cfg.loss_params, cfg.dimension, cfg.seed)
        hs, clean = [1.0, 0.5, 0.05], [[1, 1, 1], [0, 0, 0], [0, 0, 1]]
    else:
        # the heavy ball overshoots the minimizer at 9 past the radius 10;
        # the memoryless iterations approach it monotonically
        cfg = RunConfig(seed=0, dimension=1, horizon=3.0, loss_id="quadratic", loss_params={},
                        optimizer=OptimizerSpec.heavy_ball(1e-2, 0.9), theta0=(0.0,))
        loss = make_quadratic(np.eye(1), np.array([9.0]), domain_radius=10.0)
        hs, clean = [2e-2, 1e-2, 5e-3], [[0, 0, 1], [1, 1, 1], [1, 1, 1]]
    kinds = [MEMORYFUL, MemorylessKind.second(), MemorylessKind.first()]
    fused = run_stack(cfg, kinds, loss, hs)
    assert [[int(t.domain_exit is None) for t in rows] for rows in fused] == clean
    for kind, rows in zip(kinds, fused):
        for h, row in zip(hs, rows):
            single = run_stack(with_h(cfg, h), [kind], loss)[0]
            assert row.domain_exit == single.domain_exit and len(row) == len(single)
            assert rel_linf(row.iterates, single.iterates) <= 1e-13
