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
MC_BLOCK = 8192  # orderings drawn and evaluated at a time by expected_correction_mc


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


def epoch_corrections(family: MiniBatchFamily, beta: float, theta: ParamVector,
                      h: float, orders: np.ndarray) -> np.ndarray:
    """(S, d) epoch corrections, one per ordering in the rows of the (S, M)
    array orders, for any family of row-wise loss oracles.

    With F_s the contracted update at inner step s and W_p = sum_{s >= p} F_s,
    the correction of an ordering is h beta sum_p beta^(n-1-p) J_{order[p]} W_p.
    The hvp is linear in its direction, so each batch's weighted windows are
    summed first and its hvp applied once, to all orderings at once."""
    M = family.size
    n = M - 1
    rows = np.arange(orders.shape[0])
    G = np.stack([b.grad(theta) for b in family.batches])  # (M, d)
    # prefix sums of the contracted updates of every ordering
    prefix = np.zeros((n + 1, orders.shape[0], theta.size))
    F = 0.0
    for s in range(n):
        F = G[orders[:, s]] + beta * F
        prefix[s + 1] = prefix[s] + F
    # per batch, the weighted windows that batch closes, per ordering
    windows = np.zeros((M, orders.shape[0], theta.size))
    for p in range(n):
        windows[orders[:, p], rows] += beta ** (n - 1 - p) * (prefix[n] - prefix[p])
    return h * beta * sum(b.hvp(theta, w) for b, w in zip(family.batches, windows))


def expected_correction_exhaustive(family: MiniBatchFamily, beta: float,
                                   theta: ParamVector, h: float) -> np.ndarray:
    """Exact average of the epoch correction over all (n+1)! orderings."""
    theta = as_param_vector(theta)
    if family.size > EXHAUSTIVE_MAX:
        raise ValueError(
            f"family of {family.size} needs {family.size}! orderings; "
            "use expected_correction_mc")
    orders = np.array(list(permutations(range(family.size))))
    return epoch_corrections(family, beta, theta, h, orders).mean(axis=0)


def expected_correction_mc(family: MiniBatchFamily, beta: float, theta: ParamVector,
                           h: float, samples: int, seed: int
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Unbiased sample mean over uniform orderings plus componentwise standard
    errors; orderings drawn by Fisher-Yates shuffling from the seeded stream.

    The orderings are drawn and evaluated MC_BLOCK at a time, in stream order,
    so the call holds O(MC_BLOCK * M * d) scratch plus the 8 * d bytes of each
    sample's correction; the samples equal those of one draw of all orderings."""
    theta = as_param_vector(theta)
    if samples < 100:
        raise ValueError("samples must be >= 100")
    stream = rng(seed, "minibatch-mc")
    vals = np.empty((samples, theta.size))
    for start in range(0, samples, MC_BLOCK):
        block = vals[start:start + MC_BLOCK]
        orders = stream.permuted(np.tile(np.arange(family.size), (len(block), 1)), axis=1)
        block[:] = epoch_corrections(family, beta, theta, h, orders)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(samples)


def batch_pair_expectations(family: MiniBatchFamily, theta: ParamVector
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """(E_eq, E_neq): componentwise expectations of hvp(g) over a uniform batch
    pair, split by whether the two draws are the same batch."""
    theta = as_param_vector(theta)
    M = family.size
    grads = [b.grad(theta) for b in family.batches]
    g_sum = np.sum(grads, axis=0)
    e_eq = np.zeros_like(theta)
    e_neq = np.zeros_like(theta)
    for i, b in enumerate(family.batches):
        e_eq += b.hvp(theta, grads[i])
        e_neq += b.hvp(theta, g_sum - grads[i])
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
