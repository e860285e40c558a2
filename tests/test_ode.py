from collections import Counter

import numpy as np
import pytest

from memlens import (Kind, OptimizerSpec, RunConfig, build_modified_ode,
                     compare_discrete_vs_ode, integrate_rk4, loss_from_config,
                     make_quadratic)
from memlens.core import floor_steps
from memlens.correction import correction_closed
from memlens.memoryful import momentum_form, stack_spec

from conftest import (counting_loss, equal_momentum_specs, limit_specs, random_spd,
                      rel_linf, spec_id)
from oracles import fd_modified_ode


def hb_config(h=1e-2, beta=0.9, d=4, T=1.0, eig=(0.02, 0.2)):
    return RunConfig(seed=8, dimension=d, horizon=T, loss_id="quadratic",
                     loss_params={"eig_min": eig[0], "eig_max": eig[1]},
                     optimizer=OptimizerSpec.heavy_ball(h, beta))


def rk4_config(theta0, T, h):
    # integrate_rk4 reads theta^(0), the horizon and h of its config
    return RunConfig(seed=0, dimension=len(theta0), horizon=T, loss_id="quadratic",
                     loss_params={}, optimizer=OptimizerSpec.heavy_ball(h, 0.0),
                     theta0=tuple(theta0))


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
        assert np.max(np.abs(ode.field(theta)[1] - expected)) <= 1e-10


def test_beta_zero_pure_discretization_term(rng):
    # no memory: G2 = -grad(G1) G1 / 2 = -grad ||grad||^2 / 4
    loss = make_quadratic(random_spd(3, rng), rng.standard_normal(3))
    ode = build_modified_ode(OptimizerSpec.heavy_ball(1e-2, 0.0), loss)
    theta = rng.standard_normal(3)
    expected = -2.0 * loss.hvp(theta, loss.grad(theta)) / 4.0
    assert np.max(np.abs(ode.field(theta)[1] - expected)) <= 1e-12


def test_scalar_quadratic_g2_value():
    # d=1, A=a=1, beta=0.5, theta=1: G2 = -(1.5/0.125) * 2/4 = -6
    loss = make_quadratic(np.array([[1.0]]), np.zeros(1))
    ode = build_modified_ode(OptimizerSpec.heavy_ball(1e-2, 0.5), loss)
    assert ode.field(np.array([1.0]))[1][0] == pytest.approx(-6.0, abs=1e-12)


def test_analytic_vs_fd_jacobian(rng):
    loss = make_quadratic(random_spd(4, rng), rng.standard_normal(4))
    for spec in limit_specs(1e-2):
        ode_a = build_modified_ode(spec, loss)
        ode_f = fd_modified_ode(spec, loss)
        theta = rng.standard_normal(4)
        assert rel_linf(ode_a.field(theta)[1], ode_f(theta)[1]) <= 1e-6


def test_fused_field_matches_unfused_terms(rng):
    # G2 from one pass equals -(correction / h + grad(G1) G1 / 2) assembled
    # from the closed-form correction and the form's Jacobian of F applied to F
    loss = make_quadratic(random_spd(4, rng), rng.standard_normal(4))
    h = 1e-2
    for spec in limit_specs(h):
        ode = build_modified_ode(spec, loss)
        form = momentum_form(spec)
        theta = rng.standard_normal(4)
        F, jac_F_F = form.jvp_pass(form.limit_scales, form.limit_scales)(
            loss, theta, loss.grad(theta))
        G2 = -(correction_closed(spec, loss, theta, None).vector / h + 0.5 * jac_F_F)
        g1, g2 = ode.field(theta)
        assert rel_linf(g1, -F) == 0.0
        assert rel_linf(g2, G2) <= 1e-14
        assert rel_linf(ode.rhs(theta), -F + h * G2) <= 1e-14


def test_rhs_makes_one_grad_and_one_hvp(rng):
    counting, counts = counting_loss(make_quadratic(random_spd(4, rng),
                                                    rng.standard_normal(4)))
    for spec in limit_specs(1e-2):
        for rows, stacked in ((None, spec), (3, stack_spec(spec, [1e-2, 5e-3, 2.5e-3]))):
            ode = build_modified_ode(stacked, counting)
            counts.clear()
            ode.rhs(rng.standard_normal(4 if rows is None else (rows, 4)))
            assert counts == Counter(grad=1, hvp=1), (spec, rows)


@pytest.mark.parametrize("spec", limit_specs(1e-2), ids=spec_id)
def test_rk4_stack_makes_four_grads_and_hvps_per_substep(spec):
    # one stacked rhs per RK4 stage: 4 * dt_ratio grad and hvp calls per
    # sample of the longest row, whatever the rows' h, and no loss value
    hs = [1e-2, 5e-3, 2.5e-3]
    cfg = RunConfig(seed=3, dimension=4, horizon=0.05, loss_id="quadratic",
                    loss_params={"eig_min": 0.1, "eig_max": 1.0}, optimizer=spec)
    loss, counts = counting_loss(loss_from_config(cfg.loss_id, cfg.loss_params,
                                                  cfg.dimension, cfg.seed))
    odesys = build_modified_ode(stack_spec(spec, hs), loss)
    for dt_ratio in (4, 8):
        counts.clear()
        flows = integrate_rk4(cfg, loss, odesys, dt_ratio)
        samples = max(len(flow.iterates) - 1 for flow in flows)
        assert samples == floor_steps(cfg.horizon, min(hs))
        assert counts == Counter(grad=4 * dt_ratio * samples, hvp=4 * dt_ratio * samples)


def test_first_order_flow_makes_no_hvp():
    # without G2 each RK4 stage evaluates G1 = -F alone: one grad, no hvp
    cfg = hb_config(h=1e-2, T=0.05)
    loss, counts = counting_loss(loss_from_config(cfg.loss_id, cfg.loss_params,
                                                  cfg.dimension, cfg.seed))
    flow = integrate_rk4(cfg, loss, build_modified_ode(cfg.optimizer, loss), dt_ratio=4,
                         include_g2=False)
    assert len(flow) - 1 == 5
    assert counts == Counter(grad=80)


# -- the one-pass right-hand side ---------------------------------------------

ONE_PASS_SPECS = limit_specs(1e-2) + equal_momentum_specs(1e-2)


@pytest.mark.parametrize("spec", ONE_PASS_SPECS, ids=spec_id)
def test_limit_pass_evaluates_the_generic_output_map(spec, quad4, logistic6, rng):
    # the specialised expressions of jvp_pass give bitwise the F of
    # contracted_F, at the large-n and at finite-n scales, for one point and
    # for a stack, with one window and with K windows
    form = momentum_form(spec)
    for loss, d in ((quad4, 4), (logistic6, 6)):
        for theta in (rng.standard_normal(d), rng.standard_normal((3, d))):
            g = loss.grad(theta)
            V = rng.standard_normal((2,) + theta.shape)
            for n in (None, 1, 7, 60):
                c = form.scales(n)
                want = form.contracted_F(loss, theta, n, g)
                assert np.array_equal(form.jvp_pass(c, c)(loss, theta, g)[0], want), n
                F, _ = form.jvp_pass(c, np.array([c, c]))(loss, theta, g, V)
                assert np.array_equal(F, want), n


@pytest.mark.parametrize("spec", ONE_PASS_SPECS, ids=spec_id)
def test_k_window_pass_sums_one_window_passes(spec, quad4, logistic6, rng):
    # the slot Jacobian is linear in its windows: K windows with a (K, Q)
    # weight table give the sum of K one-window passes, at the large-n and at
    # finite-n scales, for one point and for a stack
    form = momentum_form(spec)
    K = 5
    for loss, d in ((quad4, 4), (logistic6, 6)):
        for theta in (rng.standard_normal(d), rng.standard_normal((3, d))):
            g = loss.grad(theta)
            V = rng.standard_normal((K,) + theta.shape)
            table = rng.uniform(-2.0, 2.0, size=(K, len(form.slots)))
            for n in (None, 1, 7, 60):
                c = form.scales(n)
                _, many = form.jvp_pass(c, table)(loss, theta, g, V)
                one = sum(form.jvp_pass(c, tuple(w))(loss, theta, g, v)[1]
                          for w, v in zip(table, V))
                assert rel_linf(many, one) <= 1e-13, n


@pytest.mark.parametrize("spec", ONE_PASS_SPECS, ids=spec_id)
def test_stacked_rhs_equals_each_rows_field(spec, quad4, logistic6, rng):
    # h folded into the slot weights of a (B, 1) column: each row is that
    # row's G1 + h_i * G2
    hs = [1e-2, 3e-3, 7e-4]
    for loss, d in ((quad4, 4), (logistic6, 6)):
        ode = build_modified_ode(stack_spec(spec, hs), loss)
        theta = rng.standard_normal((len(hs), d))
        rhs = ode.rhs(theta)
        for i, h in enumerate(hs):
            g1, g2 = ode.field(theta[i])
            assert rel_linf(rhs[i], g1 + h * g2) <= 1e-15, h


@pytest.mark.parametrize("spec", equal_momentum_specs(1e-2), ids=spec_id)
def test_folded_lead_weight_at_equal_momenta(spec, quad4):
    # at beta1 = beta2 the numerator and denominator slots of AdamW carry equal
    # scales and equal folded weights, so lead = c_1 p(w) - p(c) w_1 is exactly
    # 0 in every row and nothing cancels in the slot Jacobian; NAdamW keeps
    # only the genuine term of its plain-gradient slot, (1 - beta1)(w_3 c_1 - w_1 c_3)
    h = np.array([[1e-2], [3e-3], [7e-4]])
    form = momentum_form(spec)
    c = form.limit_scales
    # the G2 weights lag_scales + limit_scales / 2 with -h folded in, as rhs takes them
    w = tuple(-h * (a + 0.5 * b) for a, b in zip(form.lag_scales, c))
    _, lead = form.combined_weights(c, w)
    if spec.kind is Kind.ADAMW:
        assert np.all(lead == 0.0)
    else:
        assert np.array_equal(lead, (1.0 - spec.beta1) * (w[3] * c[1] - w[1] * c[3]))


def test_rk4_matches_exact_linear_flow(rng):
    # gradient descent's modified equation on a quadratic,
    # theta' = -(I + h A / 2)(A theta - b), has the closed-form solution through
    # the eigendecomposition of A, with rates w (1 + h w / 2)
    A = random_spd(3, rng)
    b = rng.standard_normal(3)
    loss = make_quadratic(A, b)
    theta0 = rng.standard_normal(3)
    h, T = 1e-2, 1.0
    ode = build_modified_ode(OptimizerSpec.heavy_ball(h, 0.0), loss)
    flow = integrate_rk4(rk4_config(theta0, T, h), loss, ode, dt_ratio=8).iterates
    w, V = np.linalg.eigh(A)
    rates = w * (1.0 + 0.5 * h * w)
    fixed_point = np.linalg.solve(A, b)
    for n in (10, 50, 100):
        t = n * h
        exact = fixed_point + V @ (np.exp(-rates * t) * (V.T @ (theta0 - fixed_point)))
        assert np.max(np.abs(flow[n] - exact)) <= 1e-10


def test_rk4_self_consistency_and_guards(rng):
    loss = make_quadratic(random_spd(3, rng), rng.standard_normal(3))
    spec = OptimizerSpec.heavy_ball(1e-2, 0.5)
    ode = build_modified_ode(spec, loss)
    cfg = rk4_config(rng.standard_normal(3), 0.5, spec.h)
    end_a = integrate_rk4(cfg, loss, ode, dt_ratio=8).iterates[-1]
    end_b = integrate_rk4(cfg, loss, ode, dt_ratio=16).iterates[-1]
    assert np.max(np.abs(end_a - end_b)) <= 1e-10
    short = rk4_config(cfg.theta0, 0.5 * spec.h, spec.h)  # T < h: initial point
    assert integrate_rk4(short, loss, ode).iterates.shape == (1, 3)
    with pytest.raises(ValueError, match="dt"):
        integrate_rk4(cfg, loss, ode, dt_ratio=2)


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
