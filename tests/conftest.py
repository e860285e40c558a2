import dataclasses
from collections import Counter

import numpy as np
import pytest

from memlens import OptimizerSpec, make_logistic, make_quadratic, make_scalar_quartic


def random_spd(d, rng, eig_lo=0.5, eig_hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.exp(rng.uniform(np.log(eig_lo), np.log(eig_hi), size=d))
    A = (q * eigs) @ q.T
    return 0.5 * (A + A.T)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def quad4(rng):
    A = random_spd(4, rng)
    return make_quadratic(A, rng.standard_normal(4))


@pytest.fixture
def quartic():
    return make_scalar_quartic(1.0)


@pytest.fixture
def logistic6(rng):
    X = rng.standard_normal((40, 6)) / np.sqrt(6)
    y = np.where(X @ rng.standard_normal(6) >= 0, 1.0, -1.0)
    return make_logistic(X, y, ridge=0.01)


def rel_linf(a, b, floor=1e-12):
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def all_kind_specs(h=1e-3):
    return [
        OptimizerSpec.heavy_ball(h, 0.9),
        OptimizerSpec.nesterov(h, 0.8),
        OptimizerSpec.adamw(h, 0.9, 0.95, lam=0.1, eps=1e-4),
        OptimizerSpec.nadamw(h, 0.85, 0.9, lam=0.1, eps=1e-4),
        OptimizerSpec.lion_k(h, 0.9, 0.95, lam=0.1, eps=1e-4),
        OptimizerSpec.lion_k(h, 0.9, 0.95, lam=0.1, eps=1e-4, bias_correction=True),
    ]


def limit_specs(h=1e-3):
    """all_kind_specs plus the adaptive kinds without bias correction, whose
    large-n slot scales differ from the bias-corrected ones."""
    return all_kind_specs(h) + [
        OptimizerSpec.adamw(h, 0.9, 0.95, lam=0.1, eps=1e-4, bias_correction=False),
        OptimizerSpec.nadamw(h, 0.85, 0.9, lam=0.1, eps=1e-4, bias_correction=False),
    ]


def equal_momentum_specs(h=1e-3):
    """AdamW and NAdamW at beta1 = beta2, with and without bias correction:
    there the numerator and denominator terms of the slot Jacobian are each
    O(1) and cancel to O(eps / den^2)."""
    return [kind(h, 0.9, 0.9, lam=0.1, eps=eps, bias_correction=bc)
            for kind in (OptimizerSpec.adamw, OptimizerSpec.nadamw)
            for eps in (1e-8, 1e-6, 1e-3) for bc in (True, False)]


def spec_id(spec):
    equal = f"-equal-eps{spec.eps:g}" if spec.beta1 == spec.beta2 else ""
    return f"{spec.kind.value}-bc{int(spec.bias_correction)}{equal}"


def counting_loss(loss):
    """(loss with counted oracles, Counter of value/grad/hvp calls)."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    return dataclasses.replace(loss, **{name: counted(name, getattr(loss, name))
                                        for name in ("value", "grad", "hvp")}), counts
