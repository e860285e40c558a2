"""Permutation-averaged memory corrections for exponential gradient averaging
over one epoch of randomly ordered mini-batches: exhaustive enumeration,
Monte Carlo estimation, the coefficient decomposition into same-batch and
cross-batch pair expectations, and the noise-regularized modified loss.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from itertools import permutations

from .core import ParamVector, as_param_vector, rng
from .losses import MiniBatchFamily

EXHAUSTIVE_MAX = 7  # (n+1)! enumeration cap


@dataclass(frozen=True)
class PermutationCoefficients:
    """Weights of the same-batch and cross-batch pair expectations in the
    permutation-averaged correction (divided by h)."""

    c_eq: float
    c_neq: float
    beta: float
    n: Optional[int]  # None means the large-n limits


def perm_coefficients(beta: float, n: Optional[int] = None) -> PermutationCoefficients:
    """Exact finite sums, or the limits beta/((1-beta)^2(1+beta)) and
    2 beta^2/((1-beta)^3(1+beta)); their sum tends to beta/(1-beta)^3."""
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")
    if beta == 0.0:
        return PermutationCoefficients(0.0, 0.0, beta, n)
    if n is None:
        c_eq = beta / ((1.0 - beta) ** 2 * (1.0 + beta))
        c_neq = 2.0 * beta ** 2 / ((1.0 - beta) ** 3 * (1.0 + beta))
        return PermutationCoefficients(c_eq, c_neq, beta, None)
    if n < 0:
        raise ValueError("n must be >= 0")
    c_eq = 0.0
    total = 0.0
    for k in range(n):
        # inner sums in closed form; both loops over l = 1..k+1
        c_eq += beta ** k * (1.0 - beta ** (k + 1)) / (1.0 - beta)
        total += beta ** k * ((k + 1) - beta ** (n - k) * (1.0 - beta ** (k + 1))
                              / (1.0 - beta)) / (1.0 - beta)
    c_eq *= beta
    total *= beta
    return PermutationCoefficients(c_eq, total - c_eq, beta, n)


def _correction_for_order(family: MiniBatchFamily, beta: float, theta: ParamVector,
                          h: float, order) -> np.ndarray:
    """Correction vector for one epoch ordering, via prefix sums over the
    contracted per-step updates."""
    n = family.size - 1
    G = [family.batches[i].grad(theta) for i in range(family.size)]
    # contracted update at inner step s under this ordering
    F = np.zeros_like(theta)
    prefix = [np.zeros_like(theta)]
    for s in range(n):
        F = G[order[s]] + beta * F
        prefix.append(prefix[-1] + F)
    c = np.zeros_like(theta)
    for k in range(n):
        S_k = prefix[n] - prefix[n - 1 - k]
        c = c + beta ** k * family.batches[order[n - 1 - k]].jvp(theta, S_k)
    return h * beta * c


def expected_correction_exhaustive(family: MiniBatchFamily, beta: float,
                                   theta: ParamVector, h: float) -> np.ndarray:
    """Exact average of the epoch correction over all (n+1)! orderings."""
    theta = as_param_vector(theta)
    if family.size > EXHAUSTIVE_MAX:
        raise ValueError(
            f"family of {family.size} needs {family.size}! orderings; "
            "use expected_correction_mc")
    total = np.zeros_like(theta)
    count = 0
    for order in permutations(range(family.size)):
        total += _correction_for_order(family, beta, theta, h, order)
        count += 1
    return total / count


def expected_correction_mc(family: MiniBatchFamily, beta: float, theta: ParamVector,
                           h: float, samples: int, seed: int
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Unbiased sample mean over uniform orderings plus componentwise standard
    errors; orderings drawn by Fisher-Yates shuffling from the seeded stream."""
    theta = as_param_vector(theta)
    if samples < 100:
        raise ValueError("samples must be >= 100")
    g = rng(seed, "minibatch-mc")
    M = family.size
    n = M - 1
    orders = np.tile(np.arange(M), (samples, 1))
    orders = g.permuted(orders, axis=1)

    if family.quad_A is not None:
        # vectorized path for quadratic batches
        G = family.quad_A @ theta - family.quad_b  # (M, d)
        Gp = G[orders]  # (samples, M, d)
        F = np.zeros((samples, theta.size))
        prefix = np.zeros((samples, n + 1, theta.size))
        for s in range(n):
            F = Gp[:, s, :] + beta * F
            prefix[:, s + 1, :] = prefix[:, s, :] + F
        vals = np.zeros((samples, theta.size))
        for k in range(n):
            S_k = prefix[:, n, :] - prefix[:, n - 1 - k, :]
            A_sel = family.quad_A[orders[:, n - 1 - k]]  # (samples, d, d)
            vals += beta ** k * np.einsum("sij,sj->si", A_sel, S_k)
        vals *= h * beta
    else:
        vals = np.empty((samples, theta.size))
        for i in range(samples):
            vals[i] = _correction_for_order(family, beta, theta, h, orders[i])

    mean = vals.mean(axis=0)
    stderr = vals.std(axis=0, ddof=1) / np.sqrt(samples)
    return mean, stderr


def batch_pair_expectations(family: MiniBatchFamily, theta: ParamVector
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """(E_eq, E_neq): componentwise expectations of jvp(g) over a uniform batch
    pair, split by whether the two draws are the same batch."""
    theta = as_param_vector(theta)
    M = family.size
    grads = [b.grad(theta) for b in family.batches]
    g_sum = np.sum(grads, axis=0)
    e_eq = np.zeros_like(theta)
    e_neq = np.zeros_like(theta)
    for i, b in enumerate(family.batches):
        e_eq += b.jvp(theta, grads[i])
        e_neq += b.jvp(theta, g_sum - grads[i])
    return e_eq / M, e_neq / (M * (M - 1))


def expected_correction_decomposed(family: MiniBatchFamily, beta: float,
                                   theta: ParamVector, h: float,
                                   n: Optional[int] = None) -> np.ndarray:
    """h * (c_eq * E_eq + c_neq * E_neq); exact for finite-n coefficients."""
    if n is None:
        n = family.size - 1
    coef = perm_coefficients(beta, n)
    e_eq, e_neq = batch_pair_expectations(family, theta)
    return h * (coef.c_eq * e_eq + coef.c_neq * e_neq)


def gradient_noise_second_moment(family: MiniBatchFamily, theta: ParamVector) -> float:
    """Average of ||g^(k)(theta) - mean g(theta)||^2 over batches."""
    theta = as_param_vector(theta)
    gbar = family.mean.grad(theta)
    return float(np.mean([np.sum((b.grad(theta) - gbar) ** 2) for b in family.batches]))


def modified_loss_minibatch(family: MiniBatchFamily, beta: float,
                            theta: ParamVector, h: float) -> float:
    """Mean loss plus the squared-gradient penalty plus the mini-batch noise
    penalty with weight h*beta/(2(1-beta)(1+beta))."""
    theta = as_param_vector(theta)
    gbar = family.mean.grad(theta)
    base = float(np.mean([b.value(theta) for b in family.batches]))
    drift_term = h * beta / (2.0 * (1.0 - beta) ** 2) * float(gbar @ gbar)
    noise_term = h * beta / (2.0 * (1.0 - beta) * (1.0 + beta)) \
        * gradient_noise_second_moment(family, theta)
    return base + drift_term + noise_term
