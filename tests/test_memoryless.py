import time

import numpy as np
import pytest

from memlens import (OptimizerSpec, RunConfig, loss_from_config,
                     one_step_defect, run_memoryful, run_memoryless)
from memlens import correction
from memlens.correction import correction_closed
from memlens.memoryless import CorrectionVariant, MemorylessKind, Order

from conftest import counting_loss, limit_specs
from oracles import (adamw_memoryless_reference, lion_eps_memoryless_reference, linf_distance,
                     one_memoryless_step)

def quad_config(spec, d=4, T=0.3, seed=5):
    return RunConfig(seed=seed, dimension=d, horizon=T, loss_id="quadratic",
                     loss_params={"eig_min": 0.5, "eig_max": 2.0}, optimizer=spec)


def test_vanishing_h_leaves_theta_unchanged(quad4, rng):
    # h > 0 is required by the spec record; the h -> 0 limit is the identity
    theta = rng.standard_normal(4)
    spec = OptimizerSpec.heavy_ball(1e-300, 0.9)
    out = one_memoryless_step(spec, quad4, theta, 3, MemorylessKind.second())
    assert np.array_equal(out, theta)


def test_heavyball_first_order_coefficient(quad4, rng):
    # the contracted heavy-ball update is (1 - beta^(n+1))/(1 - beta) * grad
    theta = rng.standard_normal(4)
    h, beta = 1e-3, 0.8
    spec = OptimizerSpec.heavy_ball(h, beta)
    for n in (0, 1, 4, 30):
        got = one_memoryless_step(spec, quad4, theta, n, MemorylessKind.first())
        expected = theta - h * (1 - beta ** (n + 1)) / (1 - beta) * quad4.grad(theta)
        assert linf_distance(got, expected) <= 1e-15


def test_adamw_matches_componentwise_reference(logistic6, rng):
    spec = OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.1, eps=1e-6)
    for n in (0, 1, 7, 100):
        theta = rng.standard_normal(6)
        gen = one_memoryless_step(spec, logistic6, theta, n, MemorylessKind.second())
        ref = adamw_memoryless_reference(spec, logistic6, theta, n)
        assert linf_distance(gen, ref) <= 1e-12


def test_lion_matches_componentwise_reference(logistic6, rng):
    spec = OptimizerSpec.lion_k(1e-3, 0.9, 0.95, lam=0.1, eps=1e-6,
                                bias_correction=True)
    for n in (0, 1, 7, 100):
        theta = rng.standard_normal(6)
        gen = one_memoryless_step(spec, logistic6, theta, n, MemorylessKind.second())
        ref = lion_eps_memoryless_reference(spec, logistic6, theta, n)
        assert linf_distance(gen, ref) <= 1e-12


def test_beta_zero_memoryless_equals_memoryful():
    for spec in (OptimizerSpec.heavy_ball(1e-2, 0.0),
                 OptimizerSpec.adamw(1e-2, 0.0, 0.0, lam=0.1, eps=1e-6)):
        cfg = quad_config(spec)
        full = run_memoryful(cfg)
        approx = run_memoryless(cfg, [MemorylessKind.second()])[0]
        assert np.max(np.abs(full.iterates - approx.iterates)) <= 1e-15


def test_initial_condition_pinned_bitwise():
    cfg = quad_config(OptimizerSpec.heavy_ball(1e-2, 0.9))
    full = run_memoryful(cfg)
    for kind in (MemorylessKind.first(), MemorylessKind.second(),
                 MemorylessKind.second(CorrectionVariant.ASYMPTOTIC)):
        approx = run_memoryless(cfg, [kind])[0]
        assert np.array_equal(full.iterates[0], approx.iterates[0])


def test_second_order_beats_first_order():
    cfg = quad_config(OptimizerSpec.heavy_ball(1e-3, 0.9), T=0.5)
    full = run_memoryful(cfg)
    second = run_memoryless(cfg, [MemorylessKind.second()])[0]
    first = run_memoryless(cfg, [MemorylessKind.first()])[0]
    gap2 = linf_distance(full.iterates[-1], second.iterates[-1])
    gap1 = linf_distance(full.iterates[-1], first.iterates[-1])
    assert gap2 < gap1


def test_defect_zero_at_n0():
    # empty correction sum at the first step: zero up to one ulp of theta
    # from the (theta - step) - theta round trip
    cfg = quad_config(OptimizerSpec.heavy_ball(1e-2, 0.9))
    loss = loss_from_config(cfg.loss_id, cfg.loss_params, cfg.dimension, cfg.seed)
    run = run_memoryless(cfg, [MemorylessKind.second()], loss=loss)[0]
    defects = one_step_defect(cfg.optimizer, loss, run)
    theta0 = cfg.initial_theta()
    assert defects[0] <= 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(theta0)))


@pytest.mark.parametrize("loss_id,params,d", [
    ("quadratic", {"eig_min": 0.02, "eig_max": 0.2}, 4),
    ("quartic", {"a": 0.2}, 1),
    ("logistic", {"points": 40}, 4),
])
def test_defect_order_three(loss_id, params, d):
    # sup-defect drops ~8x per halving of h for second order, ~4x for first
    spec = OptimizerSpec.heavy_ball(4e-3, 0.8)
    sups2, sups1 = [], []
    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        cfg = RunConfig(seed=9, dimension=d, horizon=0.5, loss_id=loss_id,
                        loss_params=params, optimizer=spec.with_h(h),
                        theta0="gauss")
        loss = loss_from_config(loss_id, params, d, cfg.seed)
        for kind, sups in ((MemorylessKind.second(), sups2), (MemorylessKind.first(), sups1)):
            run = run_memoryless(cfg, [kind], loss=loss)[0]
            sups.append(np.max(one_step_defect(cfg.optimizer, loss, run)))
    slope2 = np.polyfit(np.log([4e-3, 2e-3, 1e-3, 5e-4]), np.log(sups2), 1)[0]
    slope1 = np.polyfit(np.log([4e-3, 2e-3, 1e-3, 5e-4]), np.log(sups1), 1)[0]
    assert 2.7 <= slope2 <= 3.3
    assert 1.7 <= slope1 <= 2.3


def test_lion_correction_scales_linearly_in_eps(quad4, rng):
    theta = rng.standard_normal(4) + 2.0
    mags = []
    for eps in (1e-8, 2e-8, 4e-8):
        spec = OptimizerSpec.lion_k(1e-3, 0.9, 0.95, lam=0.0, eps=eps)
        mags.append(np.max(np.abs(correction_closed(spec, quad4, theta, None).vector)))
    assert mags[1] / mags[0] == pytest.approx(2.0, rel=0.05)
    assert mags[2] / mags[1] == pytest.approx(2.0, rel=0.05)


def test_fallback_flag_in_run_metadata():
    spec = OptimizerSpec.adamw(1e-2, 0.9, 0.95, lam=0.1, eps=1e-4, bias_correction=False)
    traj = run_memoryless(quad_config(spec, T=0.05), [MemorylessKind.second()])[0]
    assert "correction_fallback" in traj.meta
    assert traj.meta["correction_method"] == "contraction"
    for spec in (OptimizerSpec.heavy_ball(1e-2, 0.8), OptimizerSpec.nesterov(1e-2, 0.8)):
        traj = run_memoryless(quad_config(spec, T=0.05), [MemorylessKind.second()])[0]
        assert "correction_fallback" not in traj.meta
        assert traj.meta["correction_method"] == "closed-finite-n"


def test_nesterov_finite_n_run_is_linear_in_steps(monkeypatch):
    # 10,000 second-order finite-n steps: one grad and one hvp each (the n = 0
    # correction is the empty sum, no hvp), never the O(n) contraction, and
    # within 3 s (about 0.4 s on a 2-vCPU host; the contraction took 19 s)
    def no_contraction(*args):
        raise AssertionError("the contraction route ran")

    monkeypatch.setattr(correction, "contraction_pass", no_contraction)
    N = 10_000
    cfg = quad_config(OptimizerSpec.nesterov(1e-3, 0.9), d=10, T=N * 1e-3)
    loss, counts = counting_loss(loss_from_config(cfg.loss_id, cfg.loss_params,
                                                  cfg.dimension, cfg.seed))
    t0 = time.perf_counter()
    traj = run_memoryless(cfg, [MemorylessKind.second()], loss=loss)[0]
    elapsed = time.perf_counter() - t0
    assert len(traj) - 1 == N and traj.domain_exit is None
    assert traj.meta["correction_method"] == "closed-finite-n"
    assert counts["grad"] == N and counts["hvp"] == N - 1 and counts["value"] == 0
    assert elapsed <= 3.0, f"{elapsed:.2f} s"


def test_asymptotic_variant_is_autonomous(quad4, rng):
    # same theta in, same theta out regardless of the step index
    spec = OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.1, eps=1e-4)
    theta = rng.standard_normal(4)
    kind = MemorylessKind.second(CorrectionVariant.ASYMPTOTIC)
    a = one_memoryless_step(spec, quad4, theta, 0, kind)
    b = one_memoryless_step(spec, quad4, theta, 1000, kind)
    assert np.array_equal(a, b)


def test_first_order_ignores_variant(quad4, rng):
    theta = rng.standard_normal(4)
    spec = OptimizerSpec.heavy_ball(1e-3, 0.9)
    a = one_memoryless_step(spec, quad4, theta, 5, MemorylessKind(Order.FIRST_ORDER,
                                                              CorrectionVariant.FINITE_N))
    b = one_memoryless_step(spec, quad4, theta, 5, MemorylessKind(Order.FIRST_ORDER,
                                                              CorrectionVariant.ASYMPTOTIC))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", limit_specs(), ids=lambda s: f"{s.kind.value}-bc{int(s.bias_correction)}")
def test_second_order_step_makes_one_grad(spec, quad4, rng):
    # one grad serves the contracted update and the correction; a closed form
    # (or the large-n limit) adds one hvp, the contraction fallback one per
    # memory slot.  The step is bitwise the sum of its separately evaluated terms.
    counting, counts = counting_loss(quad4)
    theta = rng.standard_normal(4)
    for variant, n in ((CorrectionVariant.FINITE_N, 7), (CorrectionVariant.ASYMPTOTIC, None)):
        term = correction_closed(spec, quad4, theta, n)
        expected = theta - spec.h * (term.update + term.vector)
        counts.clear()
        got = one_memoryless_step(spec, counting, theta, 7, MemorylessKind.second(variant))
        assert np.array_equal(got, expected)
        assert counts["grad"] == 1 and counts["value"] == 0
        if n is None or "fallback" not in term.meta:
            assert counts["hvp"] == 1
