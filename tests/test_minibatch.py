import tracemalloc

import numpy as np
import pytest

from memlens import (OptimizerSpec, correction_bruteforce,
                     expected_correction_exhaustive, expected_correction_mc,
                     make_minibatch_quadratics, modified_loss_minibatch,
                     perm_coefficients)
from memlens.core import rng as seeded_rng
from memlens.minibatch import (MC_BLOCK, batch_pair_expectations, epoch_corrections,
                               expected_correction_decomposed)

from conftest import rel_linf
from oracles import (_correction_for_order, expected_correction_mc_whole,
                     expected_drift_largen, mc_orderings)


@pytest.fixture
def family():
    return make_minibatch_quadratics(6, 3, 0.4, seed=3)


def literal_coefficients(beta, n):
    # triple-loop transcription of the finite sums
    c_eq = beta * sum(beta ** b * sum(beta ** (b + 1 - l) for l in range(1, b + 2))
                      for b in range(n))
    total = beta * sum(beta ** k * sum(sum(beta ** b for b in range(n - l + 1))
                                       for l in range(1, k + 2))
                       for k in range(n))
    return c_eq, total - c_eq


def test_coefficients_zero_at_beta0():
    cf = perm_coefficients(0.0, 5)
    assert cf.c_eq == 0.0 and cf.c_neq == 0.0


def test_coefficients_asymptotic_values():
    cf = perm_coefficients(0.5)
    assert cf.c_eq == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert cf.c_neq == pytest.approx(8.0 / 3.0, abs=1e-15)
    assert cf.c_eq + cf.c_neq == pytest.approx(0.5 / 0.5 ** 3, abs=1e-12)


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
def test_coefficient_sum_identity(beta):
    cf = perm_coefficients(beta)
    assert abs(cf.c_eq + cf.c_neq - beta / (1 - beta) ** 3) <= 1e-12


@pytest.mark.parametrize("beta", [0.25, 0.6])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_finite_coefficients_match_literal_sums(beta, n):
    cf = perm_coefficients(beta, n)
    eq, neq = literal_coefficients(beta, n)
    assert cf.c_eq == pytest.approx(eq, rel=1e-13)
    assert cf.c_neq == pytest.approx(neq, rel=1e-13)


@pytest.mark.parametrize("beta", [0.4, 0.8])
def test_finite_coefficients_converge_geometrically(beta):
    # geometric tail bound, with an absolute floor where the analytic bound
    # drops below float subtraction noise
    limit = perm_coefficients(beta).c_eq
    for n in (1, 5, 20, 60, 200):
        gap = abs(perm_coefficients(beta, n).c_eq - limit)
        assert gap <= 2 * beta ** n / (1 - beta) ** 3 + 1e-13


def test_two_batch_hand_enumeration():
    # n = 1: c(order) = h*beta*J_{order[0]} g_{order[0]}; the average over the
    # two orderings is h*beta*(J0 g0 + J1 g1)/2
    fam = make_minibatch_quadratics(2, 3, 0.5, seed=11)
    theta = np.array([0.2, -0.4, 1.0])
    h, beta = 1e-2, 0.6
    g = [b.grad(theta) for b in fam.batches]
    hand = h * beta * (fam.batches[0].hvp(theta, g[0]) + fam.batches[1].hvp(theta, g[1])) / 2
    got = expected_correction_exhaustive(fam, beta, theta, h)
    assert np.max(np.abs(got - hand)) <= 1e-15


def test_identical_batches_reduce_to_full_batch_correction():
    fam = make_minibatch_quadratics(5, 3, 0.0, seed=7)
    theta = np.array([0.5, -0.1, 0.3])
    h, beta = 1e-3, 0.7
    averaged = expected_correction_exhaustive(fam, beta, theta, h)
    spec = OptimizerSpec.heavy_ball(h, beta)
    full = correction_bruteforce(spec, fam.mean, theta, fam.size - 1).vector
    assert np.max(np.abs(averaged - full)) <= 1e-13


@pytest.mark.parametrize("count", [3, 4, 5, 6])
def test_exhaustive_matches_decomposition(count):
    fam = make_minibatch_quadratics(count, 3, 0.5, seed=13)
    theta = np.array([0.3, 0.9, -0.6])
    h, beta = 1e-2, 0.55
    exact = expected_correction_exhaustive(fam, beta, theta, h)
    dec = expected_correction_decomposed(fam, beta, theta, h)
    assert np.max(np.abs(exact - dec)) <= 1e-10


def test_cross_pair_expectation_double_loop(family):
    theta = np.array([0.4, -0.2, 0.8])
    _, e_neq = batch_pair_expectations(family, theta)
    M = family.size
    direct = np.zeros(3)
    for i in range(M):
        for j in range(M):
            if i != j:
                direct += family.batches[i].hvp(theta, family.batches[j].grad(theta))
    direct /= M * (M - 1)
    assert np.max(np.abs(e_neq - direct)) <= 1e-13


def test_pair_expectations_match_ordering_enumeration():
    # the position-based expectations over uniform orderings reduce to batch
    # averages split by index equality; check literally against enumeration
    from itertools import permutations

    fam = make_minibatch_quadratics(4, 2, 0.6, seed=21)
    theta = np.array([0.7, -0.3])
    e_eq, e_neq = batch_pair_expectations(fam, theta)
    acc_eq = np.zeros(2)
    acc_neq = np.zeros(2)
    count = 0
    for order in permutations(range(4)):
        acc_eq += fam.batches[order[1]].hvp(theta, fam.batches[order[1]].grad(theta))
        acc_neq += fam.batches[order[1]].hvp(theta, fam.batches[order[2]].grad(theta))
        count += 1
    assert np.max(np.abs(acc_eq / count - e_eq)) <= 1e-13
    assert np.max(np.abs(acc_neq / count - e_neq)) <= 1e-13


def test_mc_agrees_with_exhaustive(family):
    theta = np.array([0.3, -1.1, 0.7])
    h, beta = 1e-3, 0.5
    exact = expected_correction_exhaustive(family, beta, theta, h)
    mean, stderr = expected_correction_mc(family, beta, theta, h, 20000, seed=3)
    assert np.all(np.abs(mean - exact) <= 3 * stderr)


def test_mc_vectorized_matches_loop_path(family):
    # the per-ordering reference loop over the orderings the Monte Carlo
    # estimate draws from its seeded stream
    theta = np.array([0.3, -1.1, 0.7])
    orders = mc_orderings(family.size, 500, seed=5)
    loop = np.array([_correction_for_order(family, 0.5, theta, 1e-3, o) for o in orders])
    a = expected_correction_mc(family, 0.5, theta, 1e-3, 500, seed=5)
    b = loop.mean(axis=0), loop.std(axis=0, ddof=1) / np.sqrt(500)
    assert np.max(np.abs(a[0] - b[0])) <= 1e-15
    assert np.max(np.abs(a[1] - b[1])) <= 1e-15


@pytest.mark.parametrize("samples", [100, MC_BLOCK, MC_BLOCK + 1, 2 * MC_BLOCK + 37])
def test_mc_blocks_equal_one_draw_bitwise(family, samples):
    # drawing the orderings block by block consumes the stream as one draw of
    # all of them does, so the estimate is the same sample to the last bit
    theta = np.array([0.3, -1.1, 0.7])
    stream = seeded_rng(11, "minibatch-mc")
    blocks = [stream.permuted(np.tile(np.arange(family.size), (min(MC_BLOCK, samples - i), 1)),
                              axis=1) for i in range(0, samples, MC_BLOCK)]
    assert np.array_equal(np.concatenate(blocks), mc_orderings(family.size, samples, seed=11))
    got = expected_correction_mc(family, 0.5, theta, 1e-3, samples, seed=11)
    want = expected_correction_mc_whole(family, 0.5, theta, 1e-3, samples, seed=11)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_mc_memory_is_bounded_by_the_block():
    # 100,000 orderings of 6 batches in d = 4: the whole-array evaluation
    # peaks at ~54 MB, the blocked one at ~8 MB
    fam = make_minibatch_quadratics(6, 4, 0.5, seed=17)
    theta = np.array([0.3, -1.1, 0.7, 0.2])
    tracemalloc.start()
    try:
        expected_correction_mc(fam, 0.5, theta, 1e-3, 100_000, seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("count", [3, 6])
def test_epoch_corrections_equal_reference_rows(count, beta):
    fam = make_minibatch_quadratics(count, 4, 0.5, seed=31)
    g = np.random.default_rng(count)
    theta = g.standard_normal(4)
    orders = np.array([g.permutation(count) for _ in range(50)])
    got = epoch_corrections(fam, beta, theta, 1e-2, orders)
    assert got.shape == (50, 4)
    for row, order in zip(got, orders):
        assert rel_linf(row, _correction_for_order(fam, beta, theta, 1e-2, order)) <= 1e-14


def test_mc_zero_spread_zero_stderr():
    # every ordering yields the same value; the reported stderr is zero up to
    # the rounding of the two-pass variance (one ulp of the mean)
    fam = make_minibatch_quadratics(4, 3, 0.0, seed=2)
    mean, stderr = expected_correction_mc(fam, 0.6, np.ones(3), 1e-3, 200, seed=1)
    assert np.all(stderr <= 4 * np.finfo(float).eps * np.abs(mean))


def test_mc_stderr_scaling(family):
    theta = np.array([0.3, -1.1, 0.7])
    _, e1 = expected_correction_mc(family, 0.5, theta, 1e-3, 2000, seed=9)
    _, e2 = expected_correction_mc(family, 0.5, theta, 1e-3, 8000, seed=9)
    ratio = np.median(e1 / e2)
    assert ratio == pytest.approx(2.0, rel=0.2)  # ~sqrt(4)


def test_mc_guards(family):
    with pytest.raises(ValueError, match="samples"):
        expected_correction_mc(family, 0.5, np.ones(3), 1e-3, 10, seed=1)
    big = make_minibatch_quadratics(8, 2, 0.1, seed=1)
    with pytest.raises(ValueError, match="mc"):
        expected_correction_exhaustive(big, 0.5, np.ones(2), 1e-3)


def test_modified_loss_reductions(family):
    theta = np.array([0.3, -1.1, 0.7])
    h = 1e-2
    assert modified_loss_minibatch(family, 0.0, theta, h) == pytest.approx(
        np.mean([b.value(theta) for b in family.batches]), abs=1e-15)
    flat = make_minibatch_quadratics(4, 3, 0.0, seed=2)
    beta = 0.6
    got = modified_loss_minibatch(flat, beta, theta, h)
    g = flat.mean.grad(theta)
    full_batch = flat.mean.value(theta) + h * beta / (2 * (1 - beta) ** 2) * float(g @ g)
    assert got == pytest.approx(full_batch, rel=1e-14)


def test_modified_loss_gradient_matches_mean_drift(family):
    # finite differences of the modified loss against (1-beta) times the
    # large-n mean memoryless update
    theta = np.array([0.3, -1.1, 0.7])
    h, beta = 1e-3, 0.5
    drift = (1 - beta) * expected_drift_largen(family, beta, theta, h)
    step = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        fd = (modified_loss_minibatch(family, beta, theta + e, h)
              - modified_loss_minibatch(family, beta, theta - e, h)) / (2 * step)
        assert abs(fd - drift[i]) <= 1e-4 * max(1.0, abs(fd))


def test_single_order_correction_prefix_structure(family):
    # spot-check the per-ordering evaluator against a literal transcription
    theta = np.array([0.4, 0.1, -0.3])
    beta, h = 0.45, 1e-2
    order = (2, 0, 4, 1, 5, 3)
    n = family.size - 1
    G = [b.grad(theta) for b in family.batches]
    literal = np.zeros(3)
    for k in range(n):
        inner = np.zeros(3)
        for l in range(1, k + 2):
            for b in range(n - l + 1):
                inner += beta ** b * G[order[n - l - b]]
        literal += beta ** k * family.batches[order[n - 1 - k]].hvp(theta, inner)
    literal *= h * beta
    got = _correction_for_order(family, beta, theta, h, order)
    assert np.max(np.abs(got - literal)) <= 1e-13
