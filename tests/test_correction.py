import numpy as np
import pytest

from memlens import (OptimizerSpec, correction_bruteforce, correction_closed,
                     correction_contraction, make_quadratic, modified_loss_heavyball)
from memlens.core import Kind, KSpec
from memlens.correction import Method, heavyball_bracket
from memlens.losses import FD_ABS_FLOOR, FD_STEP_DEFAULT
from memlens.memoryful import momentum_form, stack_spec

from conftest import (all_kind_specs, counting_loss, equal_momentum_specs, limit_specs,
                      random_spd, rel_linf, spec_id)
from oracles import (correction_closed_adamw, correction_closed_lionk,
                     correction_signum_adam_identity_check, decaying_double_sum)


def test_zero_at_n0(quad4, rng):
    theta = rng.standard_normal(4)
    for spec in all_kind_specs():
        assert np.all(correction_bruteforce(spec, quad4, theta, 0).vector == 0.0)
        assert np.all(correction_contraction(spec, quad4, theta, 0).vector == 0.0)
        assert np.all(correction_closed(spec, quad4, theta, 0).vector == 0.0)


def test_heavyball_n1_hand_value():
    # d = 1, grad = a*theta: the k=1, s=0 term gives h*beta*a^2*theta
    a, beta, h, theta = 2.0, 0.5, 0.01, 1.5
    loss = make_quadratic(np.array([[a]]), np.zeros(1))
    spec = OptimizerSpec.heavy_ball(h, beta)
    expected = h * beta * a * a * theta
    got = correction_bruteforce(spec, loss, np.array([theta]), 1).vector[0]
    assert got == pytest.approx(expected, rel=1e-14)
    closed = correction_closed(spec, loss, np.array([theta]), 1).vector[0]
    assert closed == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
def test_heavyball_bracket_n1_equals_cubed(beta):
    # the n = 1 attenuation collapses to (1-beta)^3, so the coefficient is beta
    assert heavyball_bracket(beta, 1) == pytest.approx((1 - beta) ** 3, rel=1e-12)


def _bracket_positive_sum(beta, n):
    i = np.arange(1, n + 1, dtype=np.float64)
    return float((1.0 - beta) * np.sum(beta ** (n - i) * (1.0 - beta ** i) ** 2))


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.9, 0.99, 0.999])
def test_heavyball_bracket_matches_positive_sum(beta):
    # every n below 2,500 (both branches and the switch between them), then a
    # stride through n < 20,000
    ns = list(range(1, 2500)) + list(range(2500, 20000, 97))
    got = np.array([heavyball_bracket(beta, n) for n in ns])
    ref = np.array([_bracket_positive_sum(beta, n) for n in ns])
    ulp = np.spacing(np.maximum(got, ref))
    assert np.all(np.abs(got - ref) <= 4 * ulp)


def _nesterov_bracket_positive_sum(beta, n):
    s = np.arange(n, dtype=np.float64)
    terms = beta ** (n - 1 - s) * (1.0 - beta ** (s + 1)) * (1.0 - beta ** (s + 2))
    return float((1.0 - beta) * np.sum(terms))


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.9, 0.99, 0.999])
def test_nesterov_bracket_matches_positive_sum(beta):
    ns = list(range(1, 2500)) + list(range(2500, 20000, 97))
    got = np.array([heavyball_bracket(beta, n, 2) for n in ns])
    ref = np.array([_nesterov_bracket_positive_sum(beta, n) for n in ns])
    ulp = np.spacing(np.maximum(got, ref))
    assert np.all(np.abs(got - ref) <= 4 * ulp)


def test_heavyball_asymptotic_spec_value():
    # beta=0.5, h=0.01, quadratic A=1 (d=1), theta=1: 0.01*0.5/(2*0.125)*2*1 = 0.04
    loss = make_quadratic(np.array([[1.0]]), np.zeros(1))
    spec = OptimizerSpec.heavy_ball(0.01, 0.5)
    term = correction_closed(spec, loss, np.array([1.0]), None)
    assert term.vector[0] == pytest.approx(0.04, abs=1e-15)
    brute = correction_bruteforce(spec, loss, np.array([1.0]), 200).vector[0]
    assert brute == pytest.approx(0.04, rel=1e-10)


def test_heavyball_beta0_no_memory(quad4, rng):
    spec = OptimizerSpec.heavy_ball(1e-3, 0.0)
    theta = rng.standard_normal(4)
    assert np.all(correction_closed(spec, quad4, theta, None).vector == 0.0)
    assert np.all(correction_bruteforce(spec, quad4, theta, 50).vector == 0.0)


def test_stationary_point_zero_correction(quad4):
    # at a stationary point every contracted update vanishes for lam = 0
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([0.4, -0.2])
    loss = make_quadratic(A, b)
    theta_star = np.linalg.solve(A, b)
    for spec in (OptimizerSpec.heavy_ball(1e-3, 0.9),
                 OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.0, eps=1e-4)):
        assert np.max(np.abs(correction_bruteforce(spec, loss, theta_star, 50).vector)) <= 1e-14


def test_adam_correction_zero_iff_stationary(rng):
    # both directions, lam = 0: zero at the minimizer, nonzero elsewhere
    A = random_spd(4, rng)
    b = rng.standard_normal(4)
    loss = make_quadratic(A, b)
    theta_star = np.linalg.solve(A, b)
    for b1, b2 in ((0.9, 0.9), (0.9, 0.95)):
        spec = OptimizerSpec.adamw(1e-3, b1, b2, lam=0.0, eps=1e-4)
        # the solved minimizer carries ~1e-16 gradient rounding
        at_min = correction_closed(spec, loss, theta_star, None).vector
        assert np.max(np.abs(at_min)) <= 1e-12
        for _ in range(20):
            theta = theta_star + rng.standard_normal(4)
            away = correction_closed(spec, loss, theta, None).vector
            assert np.max(np.abs(away)) > 1e-10


@pytest.mark.parametrize("spec", all_kind_specs(), ids=lambda s: f"{s.kind.value}-bc{int(s.bias_correction)}")
@pytest.mark.parametrize("n", [1, 5, 50, 200])
def test_closed_matches_bruteforce(spec, n, quad4, quartic, rng):
    for loss, d in ((quad4, 4), (quartic, 1)):
        for _ in range(3):
            theta = rng.uniform(-2, 2, size=d)
            brute = correction_bruteforce(spec, loss, theta, n).vector
            closed = correction_closed(spec, loss, theta, n).vector
            assert rel_linf(brute, closed) <= 1e-6


@pytest.mark.parametrize("spec", limit_specs(), ids=lambda s: f"{s.kind.value}-bc{int(s.bias_correction)}")
def test_large_n_closed_matches_bruteforce(spec, quad4, rng):
    theta = rng.standard_normal(4)
    brute = correction_bruteforce(spec, quad4, theta, 800).vector
    term = correction_closed(spec, quad4, theta, None)
    assert rel_linf(term.vector, brute) <= 1e-10
    # every kind has a large-n closed form, so none is a fallback
    assert term.method is Method.CLOSED_FORM_ASYMPTOTIC and "fallback" not in term.meta


@pytest.mark.parametrize("spec", limit_specs() + equal_momentum_specs(), ids=spec_id)
def test_contraction_matches_bruteforce(spec, quad4, rng):
    # and the lag-weight route where it applies; at beta1 = beta2 every route
    # stays cancellation-free down to eps = 1e-8
    theta = rng.standard_normal(4)
    lag_route = (momentum_form(spec).n_independent
                 and spec.kind not in (Kind.HEAVY_BALL, Kind.NESTEROV))
    for n in (1, 7, 60, 600):
        a = correction_bruteforce(spec, quad4, theta, n).vector
        b = correction_contraction(spec, quad4, theta, n).vector
        assert rel_linf(a, b) <= 1e-12
        if lag_route:
            assert rel_linf(a, correction_closed(spec, quad4, theta, n).vector) <= 1e-12


@pytest.mark.parametrize("spec", limit_specs(), ids=spec_id)
def test_routes_make_one_hvp_per_window(spec, quad4, rng):
    # the slots share their hvps: one per lag for the brute force, at most
    # two for the contraction, one for the lag-weight route and the bracket
    theta = rng.standard_normal(4)
    for n in (1, 7, 60):
        loss, counts = counting_loss(quad4)
        correction_bruteforce(spec, loss, theta, n)
        assert counts == {"grad": 1, "hvp": n}
        loss, counts = counting_loss(quad4)
        correction_contraction(spec, loss, theta, n)
        assert counts["grad"] == 1 and counts["hvp"] <= 2 and counts["value"] == 0
        loss, counts = counting_loss(quad4)
        if "fallback" not in correction_closed(spec, loss, theta, n).meta:
            assert counts == {"grad": 1, "hvp": 1}
    loss, counts = counting_loss(quad4)
    correction_closed(spec, loss, theta, None)
    assert counts == {"grad": 1, "hvp": 1}


@pytest.mark.parametrize("spec", limit_specs(), ids=spec_id)
def test_slot_jvp_matches_central_differences(spec, quad4, logistic6, rng):
    # with the step-n slot scales as weights, the slot Jacobian applied to one
    # window is the Jacobian of the contracted update F^(n); as one window
    # and as a K = 1 table, against central differences (criterion 9's
    # step and tolerance)
    form = momentum_form(spec)
    worst = 0.0
    for loss, d in ((quad4, 4), (logistic6, 6)):
        theta, V = rng.standard_normal(d), rng.standard_normal(d)
        g = loss.grad(theta)
        for n in (1, 7, 60):
            c = form.scales(n)
            fd = (form.contracted_F(loss, theta + FD_STEP_DEFAULT * V, n)
                  - form.contracted_F(loss, theta - FD_STEP_DEFAULT * V, n)) \
                / (2.0 * FD_STEP_DEFAULT)
            for got in (form.jvp_pass(c, c)(loss, theta, g, V)[1],
                        form.jvp_pass(c, np.array([c]))(loss, theta, g, V[None])[1]):
                denom = np.maximum(np.abs(got), FD_ABS_FLOOR)
                worst = max(worst, float(np.max(np.abs(fd - got) / denom)))
    assert worst <= 1e-5


def test_nesterov_closed_form(quad4, rng):
    theta = rng.standard_normal(4)
    beta = 0.9
    hb = correction_closed(OptimizerSpec.heavy_ball(1e-3, beta), quad4, theta, None)
    ne = correction_closed(OptimizerSpec.nesterov(1e-3, beta), quad4, theta, None)
    # coefficient ratio is exactly beta
    assert rel_linf(ne.vector, beta * hb.vector) <= 1e-14
    assert np.all(correction_closed(
        OptimizerSpec.nesterov(1e-3, 0.0), quad4, theta, None).vector == 0.0)
    brute = correction_bruteforce(OptimizerSpec.nesterov(1e-3, beta), quad4, theta, 200)
    assert rel_linf(ne.vector, brute.vector) <= 1e-6


def test_nadamw_asymptotic_vs_bruteforce(quad4, rng):
    spec = OptimizerSpec.nadamw(1e-3, 0.85, 0.9, lam=0.1, eps=1e-4)
    theta = rng.standard_normal(4)
    asym = correction_closed(spec, quad4, theta, None).vector
    brute = correction_bruteforce(spec, quad4, theta, 200).vector
    assert rel_linf(asym, brute) <= 1e-4


def test_nadamw_finite_n_closed_form(quad4, rng):
    # with bias correction every inner contracted update equals F, so the
    # adaptive closed form is exact at every n
    spec = OptimizerSpec.nadamw(1e-3, 0.85, 0.9, lam=0.1, eps=1e-4)
    theta = rng.standard_normal(4)
    for n in (1, 7, 60, 600):
        term = correction_closed(spec, quad4, theta, n)
        assert term.method is Method.CLOSED_FORM_FINITE_N
        assert rel_linf(term.vector, correction_bruteforce(spec, quad4, theta, n).vector) <= 1e-12


def test_adamw_coefficient_cancellation(quad4, rng):
    # equal momentum parameters kill the leading coefficient; as eps shrinks
    # with gradients bounded away from zero, the correction vanishes
    theta = rng.standard_normal(4) + 3.0
    norms = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        spec = OptimizerSpec.adamw(1e-3, 0.9, 0.9, lam=0.0, eps=eps)
        norms.append(np.max(np.abs(correction_closed(spec, quad4, theta, None).vector)))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-5 * norms[0]


def test_adamw_leading_coefficient_value():
    # beta1=0.9, beta2=0.95: 9 - 19 = -10
    lag = momentum_form(OptimizerSpec.adamw(1e-3, 0.9, 0.95)).lag_scales
    lead = lag[0] - lag[1]
    assert lead == pytest.approx(-10.0, abs=1e-12)


def test_lion_eps_factor_vanishes(quad4, rng):
    theta = rng.standard_normal(4) + 3.0
    norms = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        spec = OptimizerSpec.lion_k(1e-3, 0.9, 0.95, lam=0.0, eps=eps)
        norms.append(np.max(np.abs(correction_closed(spec, quad4, theta, None).vector)))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-5 * norms[0]


def test_lion_two_norm_reduces_to_heavyball(quad4, rng):
    # with the half-squared two-norm the update is the heavy ball at step
    # h*(1-beta): correction vectors differ by (1-beta)^2, and the h-weighted
    # contributions to the two updates coincide
    beta, h = 0.6, 1e-3
    theta = rng.standard_normal(4)
    lion = OptimizerSpec.lion_k(h, beta, beta, lam=0.0,
                                kspec=KSpec.HALF_SQUARED_TWO_NORM)
    hb_same_h = OptimizerSpec.heavy_ball(h, beta)
    hb_scaled = OptimizerSpec.heavy_ball(h * (1 - beta), beta)
    c_lion = correction_closed(lion, quad4, theta, None).vector
    c_hb = correction_closed(hb_same_h, quad4, theta, None).vector
    assert rel_linf(c_lion, (1 - beta) ** 2 * c_hb) <= 1e-12
    c_hb_scaled = correction_closed(hb_scaled, quad4, theta, None).vector
    assert rel_linf(h * c_lion, h * (1 - beta) * c_hb_scaled) <= 1e-12
    brute = correction_bruteforce(lion, quad4, theta, 300).vector
    assert rel_linf(c_lion, brute) <= 1e-6


def test_linearity_in_h(quad4, rng):
    # h enters only as a prefactor at frozen theta: doubling h doubles c exactly
    theta = rng.standard_normal(4)
    for spec in all_kind_specs():
        c1 = correction_bruteforce(spec, quad4, theta, 30).vector
        c2 = correction_bruteforce(spec.with_h(2 * spec.h), quad4, theta, 30).vector
        assert np.array_equal(c2, 2.0 * c1)


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_signum_adam_identity(beta, lam, quad4, rng):
    for _ in range(10):
        theta = rng.standard_normal(4)
        gap = correction_signum_adam_identity_check(beta, quad4, theta,
                                                    eps=1e-6, lam=lam)
        assert gap <= 1e-12
    assert correction_signum_adam_identity_check(0.0, quad4, rng.standard_normal(4),
                                                 eps=1e-6, lam=lam) == 0.0


def test_modified_loss_heavyball(quad4, rng):
    theta = rng.standard_normal(4)
    h, beta = 1e-2, 0.7
    g = quad4.grad(theta)
    expected = quad4.value(theta) + h * beta / (2 * (1 - beta) ** 2) * float(g @ g)
    assert modified_loss_heavyball(quad4, theta, h, beta) == pytest.approx(expected, rel=1e-14)


def test_decaying_double_sum():
    # literal triple-loop oracle at small n
    def oracle(r1, r2, n):
        return sum(r2 ** (k - 1) * sum(r1 * r2 ** s for s in range(n - k, n))
                   for k in range(1, n + 1))

    for r2 in (0.5, 0.9):
        for n in (1, 2, 5, 9):
            assert decaying_double_sum(0.8, r2, n) == pytest.approx(oracle(0.8, r2, n), rel=1e-12)
        values = [decaying_double_sum(0.8, r2, n) for n in range(50, 301)]
        assert all(a > b for a, b in zip(values, values[1:]))  # monotone past 50
        initial = decaying_double_sum(0.8, r2, 1)
        assert decaying_double_sum(0.8, r2, 2000) <= 1e-6 * initial


def test_finite_n_closed_requires_bias_for_adamw(quad4, rng):
    spec = OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.1, eps=1e-4,
                               bias_correction=False)
    with pytest.raises(ValueError, match="bias"):
        correction_closed_adamw(spec, quad4, rng.standard_normal(4), 5)
    # the dispatcher falls back and flags it
    term = correction_closed(spec, quad4, rng.standard_normal(4), 5)
    assert term.method is Method.CONTRACTION
    assert "fallback" in term.meta


def test_fallbacks_flagged(quad4, rng):
    theta = rng.standard_normal(4)
    ne = correction_closed(OptimizerSpec.nesterov(1e-3, 0.8), quad4, theta, 5)
    na = correction_closed(OptimizerSpec.nadamw(1e-3, 0.8, 0.9, eps=1e-4), quad4, theta, 5)
    adamw = OptimizerSpec.adamw(1e-3, 0.9, 0.95, lam=0.1, eps=1e-4, bias_correction=False)
    ad = correction_closed(adamw, quad4, theta, 5)
    lion = OptimizerSpec.lion_k(1e-3, 0.9, 0.95, lam=0.1, eps=1e-4)
    li = correction_closed(lion, quad4, theta, 5)
    assert "fallback" in ad.meta and "fallback" in li.meta
    assert ad.method is Method.CONTRACTION
    for term in (ne, na):
        assert term.method is Method.CLOSED_FORM_FINITE_N and "fallback" not in term.meta
    with pytest.raises(ValueError, match="bias"):
        correction_closed_lionk(lion, quad4, theta, 5)
    for spec in (OptimizerSpec.nesterov(1e-3, 0.8), adamw):
        assert correction_closed(spec, quad4, theta).method is Method.CLOSED_FORM_ASYMPTOTIC


@pytest.mark.parametrize("spec", limit_specs(), ids=lambda s: f"{s.kind.value}-bc{int(s.bias_correction)}")
def test_closed_term_carries_its_grad(spec, quad4, rng):
    # the memoryless step reads term.update in place of a second grad call
    theta = rng.standard_normal(4)
    form = momentum_form(spec)
    for n in (None, 0, 1, 7, 60):
        update = correction_closed(spec, quad4, theta, n).update
        assert rel_linf(update, form.contracted_F(quad4, theta, n)) <= 1e-15


@pytest.mark.parametrize("kind", ["adamw", "nadamw", "lionk-one-norm", "lionk-two-norm"])
@pytest.mark.parametrize("betas", [(0.9, 0.95), (0.9, 0.99), (0.5, 0.9), (0.95, 0.98),
                                   (0.0, 0.9)])
def test_closed_matches_hand_derived_forms(kind, betas, quad4, logistic6, rng):
    # the lag-weight route against the hand-derived componentwise forms, on
    # (B, d) stacks with a column of step sizes
    b1, b2 = betas
    hs = [1e-3, 2e-3, 5e-4]
    worst = 0.0
    for eps in (1e-8, 1e-6, 1e-3):
        if kind == "adamw":
            spec, oracle = OptimizerSpec.adamw(1e-3, b1, b2, 0.1, eps), correction_closed_adamw
        elif kind == "nadamw":
            spec, oracle = OptimizerSpec.nadamw(1e-3, b1, b2, 0.1, eps), correction_closed_adamw
        else:
            kspec = (KSpec.SMOOTHED_ONE_NORM if kind == "lionk-one-norm"
                     else KSpec.HALF_SQUARED_TWO_NORM)
            spec = OptimizerSpec.lion_k(1e-3, b1, b2, 0.1, eps, kspec, bias_correction=True)
            oracle = correction_closed_lionk
        spec = stack_spec(spec, hs)
        for loss, d in ((quad4, 4), (logistic6, 6)):
            theta = rng.standard_normal((len(hs), d))
            for n in (0, 1, 2, 5, 50, 200, 1000, None):
                got = correction_closed(spec, loss, theta, n).vector
                worst = max(worst, rel_linf(got, oracle(spec, loss, theta, n)))
    assert worst <= 1e-13


def test_n_independent_forms_take_the_closed_route(quad4, rng):
    # without memory an unbiased adaptive update does not depend on n either,
    # so it takes the lag-weight route at finite n, not the fallback
    theta = rng.standard_normal(4)
    for spec in (OptimizerSpec.adamw(1e-3, 0.0, 0.0, lam=0.1, eps=1e-4, bias_correction=False),
                 OptimizerSpec.nadamw(1e-3, 0.0, 0.0, lam=0.1, eps=1e-4, bias_correction=False)):
        assert momentum_form(spec).n_independent
        for n in (1, 5, 50):
            term = correction_closed(spec, quad4, theta, n)
            assert term.method is Method.CLOSED_FORM_FINITE_N and "fallback" not in term.meta
            brute = correction_bruteforce(spec, quad4, theta, n).vector
            assert np.array_equal(term.vector, brute)
    with pytest.raises(ValueError, match="depend on n"):
        momentum_form(OptimizerSpec.heavy_ball(1e-3, 0.9)).lag_weights(5)
    # a fallback is taken exactly when the update depends on n and no bracket serves
    for spec in limit_specs():
        term = correction_closed(spec, quad4, theta, 5)
        expected = (not momentum_form(spec).n_independent
                    and spec.kind not in (Kind.HEAVY_BALL, Kind.NESTEROV))
        assert ("fallback" in term.meta) == expected
