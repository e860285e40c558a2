import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlens import Kind, KSpec, OptimizerSpec, RunConfig, rng
from memlens.core import as_param_vector, smoothed_one_norm, softsign

from oracles import linf_distance

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_smoothed_one_norm_values():
    assert smoothed_one_norm(np.zeros(3), 1.0) == 3.0
    # limit eps -> 0 recovers the one-norm
    assert abs(smoothed_one_norm(np.array([3.0, 4.0]), 1e-15) - 7.0) < 1e-12
    # direct arithmetic evaluation of the defining sum
    assert smoothed_one_norm(np.array([1.0]), 1e-6) == pytest.approx(math.sqrt(1 + 1e-6), abs=0)


def test_smoothed_one_norm_eps_ladder_monotone():
    v = np.array([0.3, -1.2, 2.0])
    l1 = float(np.sum(np.abs(v)))
    values = [smoothed_one_norm(v, eps) for eps in (1e-1, 1e-3, 1e-5, 1e-7, 1e-9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(val >= l1 for val in values)
    assert values[-1] == pytest.approx(l1, abs=1e-4)


def test_smoothed_one_norm_rejects():
    with pytest.raises(ValueError, match="non-finite"):
        smoothed_one_norm(np.array([np.nan, 1.0]), 1.0)
    with pytest.raises(ValueError):
        smoothed_one_norm(np.ones(2), 0.0)


def test_softsign_values():
    assert np.all(softsign(np.zeros(2), 0.5) == 0.0)
    assert softsign(np.array([1e6]), 1e-6)[0] == pytest.approx(1.0, abs=1e-12)
    assert softsign(np.array([1.0]), 1.0)[0] == pytest.approx(1 / math.sqrt(2), abs=0)
    with pytest.raises(ValueError, match="non-finite"):
        softsign(np.array([np.inf]), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=6), st.sampled_from([1e-4, 1e-2, 1.0]))
def test_softsign_bounded_by_one(vals, eps):
    # strictly inside (-1, 1) in exact arithmetic; saturates to +-1.0 in
    # floats once eps is absorbed by v*v
    out = softsign(np.array(vals), eps)
    assert np.all(np.abs(out) <= 1.0)
    moderate = np.abs(np.array(vals)) < 1e3
    assert np.all(np.abs(out[moderate]) < 1.0)


@pytest.mark.parametrize("eps", [1e-4, 1e-2, 1.0])
def test_softsign_is_gradient_of_smoothed_norm(eps, rng):
    # finite differences of the scalar norm, componentwise
    v = rng.standard_normal(5)
    step = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = step
        fd = (smoothed_one_norm(v + e, eps) - smoothed_one_norm(v - e, eps)) / (2 * step)
        assert abs(fd - softsign(v, eps)[i]) <= 1e-6 * max(abs(fd), 1.0)


def test_linf_distance():
    assert linf_distance(np.array([1.0, 5.0]), np.array([1.0, 5.0])) == 0.0
    assert linf_distance(np.array([1.0, 5.0]), np.array([2.0, 2.0])) == 3.0
    with pytest.raises(ValueError, match="mismatch"):
        linf_distance(np.ones(2), np.ones(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8),
       st.lists(finite_floats, min_size=1, max_size=8))
def test_linf_matches_loop_oracle(a, b):
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    oracle = max(abs(x - y) for x, y in zip(a, b))
    assert linf_distance(a, b) == oracle


def test_signum_constructor_is_lionk():
    spec = OptimizerSpec.signum(1e-3, 0.9)
    assert spec.kind is Kind.LION_K
    assert spec.beta1 == spec.beta2  # bitwise
    assert spec.kspec is KSpec.SMOOTHED_ONE_NORM
    # also via the enum kind directly
    spec2 = OptimizerSpec(Kind.SIGNUM, h=1e-3, beta1=0.7)
    assert spec2.kind is Kind.LION_K and spec2.beta2 == 0.7


def test_optimizer_spec_validation():
    with pytest.raises(ValueError):
        OptimizerSpec.heavy_ball(0.0, 0.5)
    with pytest.raises(ValueError):
        OptimizerSpec.heavy_ball(1e-3, 1.0)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda"):
            OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=lam)
    for eps in (0.0, float("inf")):
        with pytest.raises(ValueError, match="eps"):
            OptimizerSpec.adamw(1e-3, 0.9, 0.95, eps=eps)
    with pytest.raises(ValueError, match="rho2"):
        OptimizerSpec.lion_k(1e-3, 0.5, 0.0)


def _config(T, h):
    return RunConfig(seed=1, dimension=2, horizon=T, loss_id="quadratic",
                     loss_params={}, optimizer=OptimizerSpec.heavy_ball(h, 0.5))


def test_step_count_is_floor_T_over_h():
    assert _config(0.005, 0.01).n_steps() == 0  # T < h
    assert _config(1.0, 0.01).n_steps() == 100  # guarded against 1/0.01 rounding
    assert _config(2.0, 0.01).n_steps() == 2 * _config(1.0, 0.01).n_steps()
    assert _config(0.995, 0.01).n_steps() == 99


def test_rng_streams_reproducible():
    a = rng(123, "theta0").standard_normal(5)
    b = rng(123, "theta0").standard_normal(5)
    c = rng(123, "other").standard_normal(5)
    d = rng(124, "theta0").standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_initial_theta_rules():
    cfg = _config(1.0, 0.01)
    assert np.all(cfg.initial_theta() == cfg.initial_theta())  # deterministic
    zeros = RunConfig(seed=1, dimension=3, horizon=1.0, loss_id="quadratic",
                      loss_params={}, optimizer=OptimizerSpec.heavy_ball(0.01, 0.5),
                      theta0="zeros")
    assert np.all(zeros.initial_theta() == 0.0)
    explicit = RunConfig(seed=1, dimension=2, horizon=1.0, loss_id="quadratic",
                         loss_params={}, optimizer=OptimizerSpec.heavy_ball(0.01, 0.5),
                         theta0=(1.0, -2.0))
    assert np.array_equal(explicit.initial_theta(), [1.0, -2.0])


def test_as_param_vector_rejects():
    with pytest.raises(ValueError):
        as_param_vector(np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        as_param_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_param_vector(np.ones(3), d=2)
