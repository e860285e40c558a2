import numpy as np
import pytest

from memlens import (OptimizerSpec, RunConfig, defect_sweep, fit_loglog,
                     global_error_sweep, n_burn_steps, ordering_fraction,
                     trajectory_closeness)
from memlens.harness import ERROR_FLOOR
from memlens.memoryless import MemorylessKind


def hb_config(beta=0.9):
    return RunConfig(seed=7, dimension=4, horizon=0.5, loss_id="quadratic",
                     loss_params={"eig_min": 0.02, "eig_max": 0.2},
                     optimizer=OptimizerSpec.heavy_ball(1e-2, beta))


GRID = [1e-2 * 2.0 ** -j for j in range(6)]


def test_fit_loglog_exact_power_laws():
    hs = np.logspace(-4, -1, 8)
    slope, _, r2 = fit_loglog(list(zip(hs, 3.0 * hs ** 2)))
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope3, _, _ = fit_loglog(list(zip(hs, 0.5 * hs ** 3)))
    assert slope3 == pytest.approx(3.0, abs=1e-12)


def test_fit_loglog_with_multiplicative_noise():
    g = np.random.default_rng(1)
    hs = np.logspace(-4, -1, 12)
    ys = 2.0 * hs ** 2 * (1.0 + g.uniform(-0.05, 0.05, size=12))
    slope, _, _ = fit_loglog(list(zip(hs, ys)))
    assert abs(slope - 2.0) <= 0.1


def test_fit_loglog_needs_three_points():
    with pytest.raises(ValueError, match="3 points"):
        fit_loglog([(0.1, 1.0), (0.01, 0.01)])


def test_global_error_sweep_slopes_and_determinism():
    cfg = hb_config()
    rep_a, = global_error_sweep(cfg, GRID, [MemorylessKind.second()])
    rep_b, = global_error_sweep(cfg, GRID, [MemorylessKind.second()])
    assert 1.7 <= rep_a.slope <= 2.3 and rep_a.r2 >= 0.98
    assert rep_a.slope == rep_b.slope  # bit-for-bit
    assert [p.metric for p in rep_a.points] == [p.metric for p in rep_b.points]
    rep_first, = global_error_sweep(cfg, GRID, [MemorylessKind.first()])
    assert 0.8 <= rep_first.slope <= 1.3


def test_global_error_sweep_degenerate_at_beta0():
    rep, = global_error_sweep(hb_config(beta=0.0), GRID, [MemorylessKind.second()])
    assert rep.status == "degenerate"
    assert all(p.metric <= ERROR_FLOOR for p in rep.points)


def test_global_error_sweep_grid_validation():
    cfg = hb_config()
    with pytest.raises(ValueError, match="5 points"):
        global_error_sweep(cfg, [1e-2, 1e-3, 1e-4], [MemorylessKind.second()])
    with pytest.raises(ValueError, match="span"):
        global_error_sweep(cfg, [1e-2, 9e-3, 8e-3, 7e-3, 6e-3], [MemorylessKind.second()])


def test_defect_sweep_returns_details():
    cfg = hb_config()
    report, details = defect_sweep(cfg, GRID)
    assert 2.7 <= report.slope <= 3.3
    for p in report.points:
        assert p.metric == pytest.approx(np.max(details[p.h]), abs=0)


def test_trajectory_closeness_structure():
    cfg = hb_config()
    data = trajectory_closeness(cfg, [1e-2, 5e-3])
    per = data[1e-2]
    assert per["gap_second"][0] == 0.0 and per["gap_first"][0] == 0.0
    frac = ordering_fraction(per, 10)
    assert 0.0 <= frac <= 1.0
    with pytest.raises(ValueError, match="burn-in"):
        ordering_fraction(per, len(per["gap_second"]) + 5)


def test_closeness_gap_scaling():
    # halving h shrinks the second-order gap ~4x and the first-order ~2x at
    # matched time (compared well past the early coefficient transients)
    cfg = RunConfig(seed=7, dimension=4, horizon=1.0, loss_id="quadratic",
                    loss_params={"eig_min": 0.02, "eig_max": 0.2},
                    optimizer=OptimizerSpec.heavy_ball(1e-2, 0.9))
    data = trajectory_closeness(cfg, [4e-3, 2e-3])
    n_common = 200  # compare at t = 200 * 4e-3 = 0.8
    g2_big = data[4e-3]["gap_second"][n_common]
    g2_small = data[2e-3]["gap_second"][2 * n_common]
    g1_big = data[4e-3]["gap_first"][n_common]
    g1_small = data[2e-3]["gap_first"][2 * n_common]
    assert g2_big / g2_small == pytest.approx(4.0, rel=0.25)
    assert g1_big / g1_small == pytest.approx(2.0, rel=0.25)


def test_n_burn_steps():
    assert n_burn_steps(OptimizerSpec.heavy_ball(1e-2, 0.0)) == 0
    nb = n_burn_steps(OptimizerSpec.heavy_ball(1e-2, 0.9), tol=1e-10)
    assert nb == int(np.ceil(np.log(1e-10) / np.log(0.9)))
    # adaptive kinds use the slowest decay
    nb2 = n_burn_steps(OptimizerSpec.adamw(1e-2, 0.9, 0.95, eps=1e-6), tol=1e-10)
    assert nb2 == int(np.ceil(np.log(1e-10) / np.log(0.95)))


@pytest.mark.parametrize("tol", [0.0, 1.0, 10.0, float("nan")])
def test_n_burn_steps_rejects_a_tol_outside_the_unit_interval(tol):
    # log(tol) >= 0 would give a burn-in of zero or fewer steps
    with pytest.raises(ValueError, match="burn-in tol"):
        n_burn_steps(OptimizerSpec.heavy_ball(1e-2, 0.9), tol=tol)


def test_sweep_domain_exit_excluded_from_fit():
    # the largest steps blow out of a tight domain; those points are recorded
    # as invalid and the fit uses the survivors
    cfg = RunConfig(seed=7, dimension=2, horizon=30.0, loss_id="quadratic",
                    loss_params={"eig_min": 1.0, "eig_max": 3.0,
                                 "domain_radius": 10.0},
                    optimizer=OptimizerSpec.heavy_ball(1.0, 0.9))
    grid = [1.0, 0.5, 0.1, 0.05, 0.02, 0.01]
    rep, = global_error_sweep(cfg, grid, [MemorylessKind.second()])
    assert any(not p.valid and p.note == "domain-exit" for p in rep.points)
    fitted_hs = {p.h for p in rep.fitted_points()}
    assert all(p.h not in fitted_hs for p in rep.points if not p.valid)
