import numpy as np
import pytest

from memlens import (fd_check_grad, fd_check_hvp, make_logistic,
                     make_minibatch_quadratics, make_quadratic,
                     make_scalar_quartic)
from memlens.losses import loss_from_config

from conftest import random_spd


def test_quadratic_values():
    loss = make_quadratic(np.eye(2), np.zeros(2))
    theta = np.array([1.0, 2.0])
    assert loss.value(theta) == 2.5
    assert np.array_equal(loss.grad(theta), [1.0, 2.0])
    # constant Hessian: hvp is independent of theta
    v = np.array([0.3, -0.7])
    assert np.array_equal(loss.hvp(theta, v), loss.hvp(10 * theta, v))


def test_quadratic_rejects():
    with pytest.raises(ValueError, match="asymmetric"):
        make_quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="positive-definite"):
        make_quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))


def test_quadratic_grad_matches_fd(rng):
    loss = make_quadratic(random_spd(5, rng), rng.standard_normal(5))
    assert fd_check_grad(loss, rng.standard_normal(5)) <= 1e-7


def test_logistic_values(rng):
    X = rng.standard_normal((30, 4))
    y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
    loss = make_logistic(X, y)
    assert loss.value(np.zeros(4)) == pytest.approx(np.log(2.0), abs=1e-15)
    with pytest.raises(ValueError, match="labels"):
        make_logistic(X, np.zeros(30))


def test_logistic_separable_margin_grad_vanishes():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-3.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    loss = make_logistic(X, y, ridge=0.0)
    g_far = loss.grad(np.array([50.0, 0.0]))
    assert np.max(np.abs(g_far)) < 1e-10


def test_logistic_hvp_matches_fd(logistic6, rng):
    theta = rng.standard_normal(6)
    v = rng.standard_normal(6)
    assert fd_check_hvp(logistic6, theta, v, step=1e-5) <= 1e-5


def test_quartic_values():
    loss = make_scalar_quartic(1.0)
    assert loss.grad(np.zeros(1))[0] == 0.0
    assert loss.hvp(np.zeros(1), np.ones(1))[0] == 0.0
    theta = np.array([2.0])
    assert loss.value(theta) == 4.0
    assert loss.grad(theta)[0] == 8.0
    assert fd_check_grad(loss, np.array([1.3]), step=1e-5) <= 1e-6
    with pytest.raises(ValueError):
        make_scalar_quartic(0.0)


def test_fd_checkers_on_all_fixtures(quad4, quartic, logistic6, rng):
    cases = [(quad4, rng.standard_normal(4)),
             (quartic, np.array([0.8])),
             (logistic6, rng.standard_normal(6))]
    for loss, theta in cases:
        assert fd_check_grad(loss, theta) <= 1e-5
        assert fd_check_hvp(loss, theta, rng.standard_normal(theta.size)) <= 1e-5
    # quadratic is exact under central differences up to rounding
    assert fd_check_grad(quad4, rng.standard_normal(4)) <= 1e-9


def test_hessian_symmetry(quad4, quartic, logistic6, rng):
    for loss, d in ((quad4, 4), (quartic, 1), (logistic6, 6)):
        theta = rng.standard_normal(d)
        H = np.column_stack([loss.hvp(theta, np.eye(d)[i]) for i in range(d)])
        assert np.max(np.abs(H - H.T)) <= 1e-10


def test_hvp_of_grad_matches_half_grad_norm_sq(quad4, logistic6, rng):
    # hvp(theta, grad) equals the gradient of ||grad||^2 / 2
    for loss, d in ((quad4, 4), (logistic6, 6)):
        theta = rng.standard_normal(d)
        lhs = loss.hvp(theta, loss.grad(theta))
        step = 1e-6
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            fp = 0.5 * float(loss.grad(theta + e) @ loss.grad(theta + e))
            fm = 0.5 * float(loss.grad(theta - e) @ loss.grad(theta - e))
            fd = (fp - fm) / (2 * step)
            assert abs(fd - lhs[i]) <= 1e-5 * max(1.0, abs(lhs[i]))


def test_minibatch_family_mean_and_spread(rng):
    fam = make_minibatch_quadratics(6, 3, 0.4, seed=9)
    for _ in range(10):
        theta = rng.standard_normal(3)
        avg = np.mean([b.grad(theta) for b in fam.batches], axis=0)
        assert np.max(np.abs(avg - fam.mean.grad(theta))) <= 1e-12

    flat = make_minibatch_quadratics(4, 3, 0.0, seed=9)
    theta = rng.standard_normal(3)
    grads = [b.grad(theta) for b in flat.batches]
    assert all(np.array_equal(grads[0], g) for g in grads)

    def variance(fam, theta):
        gbar = fam.mean.grad(theta)
        return np.mean([np.sum((b.grad(theta) - gbar) ** 2) for b in fam.batches])

    v_small = variance(make_minibatch_quadratics(6, 3, 0.1, seed=9), theta)
    v_big = variance(make_minibatch_quadratics(6, 3, 0.8, seed=9), theta)
    assert variance(flat, theta) == 0.0
    assert v_big > v_small > 0.0

    with pytest.raises(ValueError):
        make_minibatch_quadratics(1, 3, 0.1, seed=9)


def test_minibatch_family_deterministic():
    a = make_minibatch_quadratics(5, 3, 0.3, seed=4)
    b = make_minibatch_quadratics(5, 3, 0.3, seed=4)
    zero, eye = np.zeros(3), np.eye(3)
    for ba, bb in zip(a.batches, b.batches):
        # grad(0) = -b_k and the hvp on the identity is A_k
        assert np.array_equal(ba.grad(zero), bb.grad(zero))
        assert np.array_equal(ba.hvp(zero, eye), bb.hvp(zero, eye))


def test_loss_from_config_ids():
    for loss_id, params, d in [("quadratic", {"eig_min": 0.5, "eig_max": 2.0}, 3),
                               ("logistic", {"points": 20}, 3),
                               ("quartic", {"a": 2.0}, 1),
                               ("minibatch-quadratic", {"count": 4, "spread": 0.2}, 3)]:
        loss = loss_from_config(loss_id, params, d, seed=1)
        theta = 0.1 * np.ones(d)
        assert np.isfinite(loss.value(theta))
        assert fd_check_grad(loss, theta) <= 1e-5
    with pytest.raises(ValueError, match="unknown loss id"):
        loss_from_config("mystery", {}, 2, seed=1)
    with pytest.raises(ValueError, match="unknown loss parameter"):
        loss_from_config("quartic", {"b": 1.0}, 1, seed=1)
