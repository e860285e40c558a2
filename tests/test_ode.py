from collections import Counter

import numpy as np
import pytest

from memlens import (OptimizerSpec, RunConfig, build_modified_ode,
                     compare_discrete_vs_ode, integrate_rk4, make_quadratic)
from memlens.correction import correction_closed
from memlens.memoryful import momentum_form
from memlens.ode import ModifiedODE

from conftest import counting_loss, limit_specs, random_spd, rel_linf
from oracles import fd_modified_ode


def hb_config(h=1e-2, beta=0.9, d=4, T=1.0, eig=(0.02, 0.2)):
    return RunConfig(seed=8, dimension=d, horizon=T, loss_id="quadratic",
                     loss_params={"eig_min": eig[0], "eig_max": eig[1]},
                     optimizer=OptimizerSpec.heavy_ball(h, beta))


def test_heavyball_g2_closed_form(rng):
    # G2 must equal -(1+beta)/(4(1-beta)^3) * grad ||grad||^2
    A = random_spd(5, rng)
    loss = make_quadratic(A, rng.standard_normal(5))
    beta = 0.7
    ode = build_modified_ode(OptimizerSpec.heavy_ball(1e-2, beta), loss)
    for _ in range(5):
        theta = rng.standard_normal(5)
        grad_norm_sq_grad = 2.0 * loss.hvp(theta, loss.grad(theta))
        expected = -(1 + beta) / (4 * (1 - beta) ** 3) * grad_norm_sq_grad
        assert np.max(np.abs(ode.G2(theta) - expected)) <= 1e-10


def test_beta_zero_pure_discretization_term(rng):
    # no memory: G2 = -grad(G1) G1 / 2 = -grad ||grad||^2 / 4
    loss = make_quadratic(random_spd(3, rng), rng.standard_normal(3))
    ode = build_modified_ode(OptimizerSpec.heavy_ball(1e-2, 0.0), loss)
    theta = rng.standard_normal(3)
    expected = -2.0 * loss.hvp(theta, loss.grad(theta)) / 4.0
    assert np.max(np.abs(ode.G2(theta) - expected)) <= 1e-12


def test_scalar_quadratic_g2_value():
    # d=1, A=a=1, beta=0.5, theta=1: G2 = -(1.5/0.125) * 2/4 = -6
    loss = make_quadratic(np.array([[1.0]]), np.zeros(1))
    ode = build_modified_ode(OptimizerSpec.heavy_ball(1e-2, 0.5), loss)
    assert ode.G2(np.array([1.0]))[0] == pytest.approx(-6.0, abs=1e-12)


def test_analytic_vs_fd_jacobian(rng):
    loss = make_quadratic(random_spd(4, rng), rng.standard_normal(4))
    for spec in limit_specs(1e-2):
        ode_a = build_modified_ode(spec, loss)
        ode_f = fd_modified_ode(spec, loss)
        theta = rng.standard_normal(4)
        assert rel_linf(ode_a.G2(theta), ode_f.G2(theta)) <= 1e-6


def test_fused_field_matches_unfused_terms(rng):
    # G2 from one pass equals -(correction / h + grad(G1) G1 / 2) assembled
    # from the closed-form correction and the form's Jacobian of F applied to F
    loss = make_quadratic(random_spd(4, rng), rng.standard_normal(4))
    h = 1e-2
    for spec in limit_specs(h):
        ode = build_modified_ode(spec, loss)
        form = momentum_form(spec)
        theta = rng.standard_normal(4)
        F, jac_F_F = form.limit_jvp(loss, theta, loss.grad(theta), form.limit_scales)
        G2 = -(correction_closed(spec, loss, theta, None).vector / h + 0.5 * jac_F_F)
        assert rel_linf(ode.G1(theta), -F) == 0.0
        assert rel_linf(ode.G2(theta), G2) <= 1e-14
        assert rel_linf(ode.rhs(theta), -F + h * G2) <= 1e-14


def test_rhs_makes_one_grad_and_one_hvp(rng):
    counting, counts = counting_loss(make_quadratic(random_spd(4, rng),
                                                    rng.standard_normal(4)))
    for spec in limit_specs(1e-2):
        ode = build_modified_ode(spec, counting)
        counts.clear()
        ode.rhs(rng.standard_normal(4))
        assert counts == Counter(grad=1, hvp=1), spec


def test_rk4_matches_exact_linear_flow(rng):
    # theta' = -(A theta - b) has the closed-form solution through the
    # eigendecomposition of A
    A = random_spd(3, rng)
    b = rng.standard_normal(3)
    loss = make_quadratic(A, b)
    theta0 = rng.standard_normal(3)
    h, T = 1e-2, 1.0
    ode = ModifiedODE(field=lambda th: (-(th @ A - b), np.zeros(3)), h=h)
    flow = integrate_rk4(ode, theta0, T, dt=h / 8)
    w, V = np.linalg.eigh(A)
    fixed_point = np.linalg.solve(A, b)
    for n in (10, 50, 100):
        t = n * h
        exact = fixed_point + V @ (np.exp(-w * t) * (V.T @ (theta0 - fixed_point)))
        assert np.max(np.abs(flow[n] - exact)) <= 1e-10


def test_rk4_self_consistency_and_guards(rng):
    loss = make_quadratic(random_spd(3, rng), rng.standard_normal(3))
    spec = OptimizerSpec.heavy_ball(1e-2, 0.5)
    ode = build_modified_ode(spec, loss)
    theta0 = rng.standard_normal(3)
    end_a = integrate_rk4(ode, theta0, 0.5, dt=1e-2 / 8)[-1]
    end_b = integrate_rk4(ode, theta0, 0.5, dt=1e-2 / 16)[-1]
    assert np.max(np.abs(end_a - end_b)) <= 1e-10
    assert integrate_rk4(ode, theta0, 0.0).shape == (1, 3)  # T=0: initial point
    with pytest.raises(ValueError, match="dt"):
        integrate_rk4(ode, theta0, 0.5, dt=1e-2 / 2)


def test_ode_slope_two_with_g2_one_without():
    cfg = hb_config()
    grid = [1e-2 * 2.0 ** -j for j in range(5)]
    with_g2 = compare_discrete_vs_ode(cfg, grid)
    assert 1.7 <= with_g2.slope <= 2.3
    assert with_g2.r2 >= 0.98
    without = compare_discrete_vs_ode(cfg, grid, include_g2=False)
    assert 0.7 <= without.slope <= 1.3


def test_classical_gd_backward_error_sanity():
    # beta = 0: discrete GD vs theta' = -grad is first order; adding the
    # discretization term makes it second order
    cfg = hb_config(beta=0.0, eig=(0.2, 1.0))
    grid = [1e-2 * 2.0 ** -j for j in range(5)]
    first = compare_discrete_vs_ode(cfg, grid, include_g2=False)
    second = compare_discrete_vs_ode(cfg, grid)
    assert 0.7 <= first.slope <= 1.3
    assert 1.7 <= second.slope <= 2.3


def test_domain_exit_marks_point_invalid():
    cfg = RunConfig(seed=8, dimension=2, horizon=40.0, loss_id="quadratic",
                    loss_params={"eig_min": 2.0, "eig_max": 4.0,
                                 "domain_radius": 1.2},
                    optimizer=OptimizerSpec.heavy_ball(1.2, 0.9))
    report = compare_discrete_vs_ode(cfg, [1.2, 0.6, 0.3, 0.15, 0.075])
    assert any(not p.valid for p in report.points)
