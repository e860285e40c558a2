from fractions import Fraction

import numpy as np
import pytest

from memlens import (KSpec, LossModel, OptimizerSpec, RunConfig,
                     make_quadratic, run_memoryful)
from memlens.losses import loss_from_config
from memlens.memoryful import drive, momentum_form

from conftest import all_kind_specs
from oracles import HistoryBuffer, eval_F_history, run_history


def hist_of(*thetas):
    h = HistoryBuffer()
    for t in thetas:
        h.append(np.atleast_1d(np.asarray(t, dtype=float)))
    return h


def constant_grad_loss(g):
    g = np.asarray(g, dtype=float)
    return LossModel(value=lambda th: float(g @ th),
                     grad=lambda th: g.copy(),
                     hvp=lambda th, v: np.zeros_like(np.asarray(v)),
                     name="linear")


def constant_loss(d):
    return LossModel(value=lambda th: 1.0,
                     grad=lambda th: np.zeros(d),
                     hvp=lambda th, v: np.zeros(d),
                     name="flat")


def test_heavyball_single_term():
    loss = make_quadratic(np.array([[1.0]]), np.zeros(1))
    spec = OptimizerSpec.heavy_ball(1e-2, 0.5)
    F = eval_F_history(spec, loss, hist_of([3.0]))
    assert F[0] == 3.0  # n = 0: just the gradient


def test_heavyball_hand_sum():
    # grad(theta) = theta, history (1, 2): F = 0.5*1 + 1*2 = 2.5
    loss = make_quadratic(np.array([[1.0]]), np.zeros(1))
    spec = OptimizerSpec.heavy_ball(1e-2, 0.5)
    F = eval_F_history(spec, loss, hist_of([1.0], [2.0]))
    assert F[0] == 2.5


def test_adamw_constant_gradient_fixed_point():
    g = np.array([0.7, -1.3])
    loss = constant_grad_loss(g)
    spec = OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.0, eps=1e-6)
    expected = g / np.sqrt(g * g + 1e-6)
    for n_hist in (1, 3, 10):
        F = eval_F_history(spec, loss, hist_of(*[np.zeros(2)] * n_hist))
        assert np.max(np.abs(F - expected)) <= 1e-12


def test_nadamw_beta1_zero_collapses_to_adamw(rng):
    loss = make_quadratic(np.diag([1.0, 2.0]), np.array([0.3, -0.2]))
    a = OptimizerSpec.adamw(1e-3, 0.0, 0.9, lam=0.2, eps=1e-6)
    n = OptimizerSpec.nadamw(1e-3, 0.0, 0.9, lam=0.2, eps=1e-6)
    for _ in range(5):
        hist = hist_of(*[rng.standard_normal(2) for _ in range(4)])
        assert np.array_equal(eval_F_history(a, loss, hist),
                              eval_F_history(n, loss, hist))


def test_adamw_contracts_geometrically_on_flat_loss():
    # zero gradient everywhere: only the weight-decay slot survives
    spec = OptimizerSpec.adamw(0.01, 0.9, 0.95, lam=0.5, eps=1e-8)
    cfg = RunConfig(seed=0, dimension=3, horizon=0.04, loss_id="quadratic", loss_params={},
                    optimizer=spec, theta0=(1.0, -2.0, 0.5))
    theta = run_memoryful(cfg, loss=constant_loss(3)).iterates
    assert len(theta) == 5
    for prev, nxt in zip(theta[:-1], theta[1:]):
        assert np.max(np.abs(nxt - (1 - 0.01 * 0.5) * prev)) <= 1e-15


def test_heavyball_beta0_is_gradient_descent(quad4, rng):
    spec = OptimizerSpec.heavy_ball(1e-2, 0.0)
    cfg = RunConfig(seed=0, dimension=4, horizon=0.05, loss_id="quadratic", loss_params={},
                    optimizer=spec, theta0=tuple(rng.standard_normal(4)))
    theta = run_memoryful(cfg, loss=quad4).iterates
    assert len(theta) == 6
    for prev, nxt in zip(theta[:-1], theta[1:]):
        assert np.array_equal(nxt, prev - 1e-2 * quad4.grad(prev))


@pytest.mark.parametrize("spec", all_kind_specs(), ids=lambda s: f"{s.kind.value}-bc{int(s.bias_correction)}")
def test_history_state_equivalence(spec):
    cfg = RunConfig(seed=5, dimension=5, horizon=0.12, loss_id="logistic",
                    loss_params={"points": 50}, optimizer=spec, theta0="gauss")
    assert cfg.n_steps() >= 100
    a = run_memoryful(cfg)
    b = run_history(cfg)
    assert a.domain_exit is None and b.domain_exit is None
    assert np.max(np.abs(a.iterates - b.iterates)) <= 1e-10


@pytest.mark.parametrize("spec", all_kind_specs(), ids=lambda s: f"{s.kind.value}-bc{int(s.bias_correction)}")
def test_memory_decays_geometrically(spec, quad4, rng):
    # sensitivity of F to a perturbation k steps back is bounded by
    # C * (max beta)^k; the per-k prefactor wobbles (it carries the gradient
    # at each history point) but the decay rate does not
    n = 25
    thetas = [0.3 * rng.standard_normal(4) for _ in range(n + 1)]
    base = eval_F_history(spec, quad4, hist_of(*thetas))
    beta_max = max(s.beta for s in momentum_form(spec).slots)
    delta = 1e-6
    ks = np.arange(1, 21)
    ratios = []
    for k in ks:
        bumped = [t.copy() for t in thetas]
        bumped[n - k] = bumped[n - k] + delta
        F = eval_F_history(spec, quad4, hist_of(*bumped))
        ratios.append(np.max(np.abs(F - base)) / delta)
    ratios = np.array(ratios)
    envelope = float(np.max(ratios / beta_max ** ks))
    assert np.isfinite(envelope) and envelope < 1e4
    slope = np.polyfit(ks, np.log(ratios), 1)[0]
    assert slope <= np.log(beta_max) + 0.05


def test_lion_two_norm_reproduces_heavyball():
    # half-squared two-norm with equal momentum parameters is the heavy ball
    # at step size h * (1 - beta)
    beta, h = 0.6, 2e-3
    lion = OptimizerSpec.lion_k(h, beta, beta, lam=0.0,
                                kspec=KSpec.HALF_SQUARED_TWO_NORM)
    hb = OptimizerSpec.heavy_ball(h * (1 - beta), beta)
    base = dict(seed=3, dimension=4, horizon=0.4, loss_id="quadratic",
                loss_params={"eig_min": 0.5, "eig_max": 2.0}, theta0="gauss")
    tl = run_memoryful(RunConfig(optimizer=lion, **base))
    # same wall-clock horizon implies the same number of steps only at equal h;
    # compare step-by-step over the shorter run
    cfg_hb = RunConfig(optimizer=hb, horizon=0.4 * (1 - beta), **{k: v for k, v in base.items() if k != "horizon"})
    th = run_memoryful(cfg_hb)
    m = min(len(tl), len(th))
    assert m > 100
    assert np.max(np.abs(tl.iterates[:m] - th.iterates[:m])) <= 1e-10


def test_truncated_history_bias_bound(quad4, rng):
    spec = OptimizerSpec.heavy_ball(1e-3, 0.8)
    thetas = [0.3 * rng.standard_normal(4) for _ in range(60)]
    full = eval_F_history(spec, quad4, hist_of(*thetas))
    trunc = HistoryBuffer(k_trunc=20)
    for t in thetas:
        trunc.append(t)
    F_tr = eval_F_history(spec, quad4, trunc)
    scale = np.max(np.abs(full)) + np.max(np.abs(quad4.grad(thetas[-1])))
    assert np.max(np.abs(full - F_tr)) <= 0.8 ** 20 * scale * 10


def test_run_lengths_and_monotone_loss():
    spec = OptimizerSpec.heavy_ball(0.01, 0.5)
    short = RunConfig(seed=1, dimension=2, horizon=0.005, loss_id="quadratic",
                      loss_params={}, optimizer=spec)
    assert len(run_memoryful(short)) == 1  # T < h: initial point only

    cfg = RunConfig(seed=1, dimension=4, horizon=1.0, loss_id="quadratic",
                    loss_params={"eig_min": 0.5, "eig_max": 2.0}, optimizer=spec)
    traj = run_memoryful(cfg)
    assert len(traj) == cfg.n_steps() + 1
    burn = 20
    diffs = np.diff(traj.loss_values[burn:])
    assert np.all(diffs <= 1e-12)

    doubled = RunConfig(seed=1, dimension=4, horizon=2.0, loss_id="quadratic",
                        loss_params={"eig_min": 0.5, "eig_max": 2.0}, optimizer=spec)
    assert doubled.n_steps() == 2 * cfg.n_steps()


def test_domain_exit_records_partial_trajectory():
    # huge step on a steep quadratic blows past the domain edge
    spec = OptimizerSpec.heavy_ball(10.0, 0.9)
    cfg = RunConfig(seed=2, dimension=2, horizon=200.0, loss_id="quadratic",
                    loss_params={"eig_min": 2.0, "eig_max": 4.0,
                                 "domain_radius": 50.0}, optimizer=spec)
    traj = run_memoryful(cfg)
    assert traj.domain_exit is not None
    assert len(traj) < cfg.n_steps() + 1


def drive_doubling(theta0, radius=1.0, bad_step=None, bad_value=np.nan):
    """drive with a step that doubles theta, and returns bad_value at step
    bad_step; the domain is |theta| < radius."""
    spec = OptimizerSpec.heavy_ball(0.1, 0.5)
    cfg = RunConfig(seed=0, dimension=1, horizon=1.0, loss_id="quadratic",
                    loss_params={"domain_radius": radius}, optimizer=spec,
                    theta0=(theta0,))
    loss = loss_from_config(cfg.loss_id, cfg.loss_params, 1, 0)

    def step(theta, n):
        return np.full(1, bad_value) if n == bad_step else 2.0 * theta

    return drive(cfg, loss, step, {})


def test_domain_exit_at_initial_point():
    traj = drive_doubling(1.5)
    assert traj.domain_exit == 0
    assert traj.iterates.tolist() == [[1.5]] and len(traj.loss_values) == 1


def test_domain_exit_after_step_records_the_iterate():
    # 0.25 -> 0.5 -> 1.0: step 1 lands on the boundary, which is outside, so
    # the run records it and stops before step 2
    traj = drive_doubling(0.25)
    assert traj.domain_exit == 2
    assert traj.iterates.tolist() == [[0.25], [0.5], [1.0]]
    assert len(traj.loss_values) == 3


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_non_finite_step_exits_unrecorded(bad_value):
    traj = drive_doubling(0.01, bad_step=2, bad_value=bad_value)
    assert traj.domain_exit == 3
    assert traj.iterates.tolist() == [[0.01], [0.02], [0.04]]
    assert len(traj.loss_values) == 3


def test_eval_F_history_rejects_empty(quad4):
    with pytest.raises(ValueError, match="empty"):
        eval_F_history(OptimizerSpec.heavy_ball(1e-3, 0.5), quad4, HistoryBuffer())


@pytest.mark.parametrize("beta", [0.9, 0.99, 0.999])
def test_lag_weights_match_exact_rationals(beta):
    # the bias-corrected slot weight is the mean lag
    # sum_{k<=n} k beta^k / sum_{i<=n} beta^i, summed here in exact integers
    # from the float beta = m / q.  The closed form beta/(1-beta) - ... cancels
    # at small n, by 1.3e-13 relative at beta = 0.99, n = 1
    form = momentum_form(OptimizerSpec.adamw(1e-3, beta, beta, lam=0.1))
    m, q = beta.as_integer_ratio()
    num, den, mk = 0, 1, 1
    for k in range(1, 501):
        mk *= m
        num, den = num * q + k * mk, den * q + mk
        if k in (1, 2, 5, 50, 500):
            exact = Fraction(num, den)
            for got in form.lag_weights(k)[:2]:  # bias_value 1 in both moment slots
                assert abs(Fraction(got) - exact) <= 1e-15 * exact
