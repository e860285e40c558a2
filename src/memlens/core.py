"""Shared value types: parameter vectors, optimizer hyperparameter records,
run configuration, deterministic RNG streams, and small numeric utilities.

All arithmetic is 64-bit; operations here are pure functions on immutable
values.
"""
from __future__ import annotations

import enum
import functools
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

# A parameter vector is a 1-D float64 array of length d >= 1 with finite entries.
ParamVector = np.ndarray

_UINT64 = (1 << 64) - 1


def as_param_vector(x, d: Optional[int] = None) -> ParamVector:
    """Coerce to a finite 1-D float64 vector; optionally enforce length d."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("parameter vector must be 1-D with length >= 1")
    if not np.isfinite(v).all():
        raise ValueError("non-finite input")
    if d is not None and v.size != d:
        raise ValueError(f"expected length {d}, got {v.size}")
    return v


def rng(seed: int, stream: str) -> np.random.Generator:
    """Counter-based generator for (seed, stream-id).

    Philox keyed on the 64-bit seed plus a hash of the stream name, so every
    stochastic draw is reproducible from (seed, stream) alone and streams are
    independent of each other.
    """
    tag = int.from_bytes(hashlib.sha256(stream.encode("utf-8")).digest()[:8], "little")
    key = (int(seed) & _UINT64) | (tag << 64)
    return np.random.Generator(np.random.Philox(key=key))


def smoothed_one_norm(v: ParamVector, eps: float) -> float:
    """Sum of sqrt(v_i^2 + eps): a smooth upper bound on the one-norm."""
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    v = as_param_vector(v)
    return float(np.sum(np.sqrt(v * v + eps)))


def softsign(v: ParamVector, eps: float) -> ParamVector:
    """Componentwise v_i / sqrt(v_i^2 + eps), the gradient of smoothed_one_norm."""
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    v = as_param_vector(v)
    return v / np.sqrt(v * v + eps)


def linf_distance(a: ParamVector, b: ParamVector) -> float:
    """max_i |a_i - b_i|; lengths must agree."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def floor_steps(T: float, h: float) -> int:
    """floor(T / h), guarded against T/h landing a few ulps below an integer."""
    return int(math.floor(T / h * (1.0 + 2.0 ** -40)))


class Kind(enum.Enum):
    HEAVY_BALL = "heavyball"
    NESTEROV = "nesterov"
    ADAMW = "adamw"
    NADAMW = "nadamw"
    LION_K = "lionk"
    SIGNUM = "signum"  # normalized to LION_K with equal momentum parameters


class KSpec(enum.Enum):
    SMOOTHED_ONE_NORM = "smoothed-one-norm"
    HALF_SQUARED_TWO_NORM = "half-squared-two-norm"


@dataclass(frozen=True)
class OptimizerSpec:
    """Which algorithm plus all hyperparameters.

    beta1/beta2 hold the two momentum parameters (for LION_K these are the
    rho pair).  lam is the decoupled weight-decay coefficient, eps the single
    smoothing/stability parameter (shared by the adaptive denominator and the
    smoothed one-norm).  bias_correction selects the n-dependent prefactors on
    the exponential averages versus their large-n limits.  Fields irrelevant
    to a kind are never read by the engines.  h is a float, or a (B, 1)
    column of step sizes for a stack of B runs stepped in lockstep; such a
    spec is not hashable.
    """

    kind: Kind
    h: float
    beta1: float = 0.0
    beta2: float = 0.0
    lam: float = 0.0
    eps: float = 1e-8
    kspec: KSpec = KSpec.SMOOTHED_ONE_NORM
    bias_correction: bool = True

    def __post_init__(self):
        if self.kind is Kind.SIGNUM:
            # Signum is exactly Lion with equal momentum parameters.
            object.__setattr__(self, "kind", Kind.LION_K)
            object.__setattr__(self, "beta2", self.beta1)
            object.__setattr__(self, "kspec", KSpec.SMOOTHED_ONE_NORM)
        h = np.asarray(self.h)
        if h.size == 0 or not np.all((h > 0.0) & (h < math.inf)):
            raise ValueError("h must be a finite positive float")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not (0.0 <= b < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        if not (0.0 <= self.lam < math.inf):
            raise ValueError("lambda must be finite and >= 0")
        if not (0.0 < self.eps < math.inf):
            raise ValueError("eps must be finite and > 0")
        if self.kind is Kind.LION_K and self.beta2 == 0.0:
            raise ValueError("lionk requires beta2 (rho2) in (0, 1)")

    @classmethod
    def heavy_ball(cls, h: float, beta: float) -> "OptimizerSpec":
        return cls(Kind.HEAVY_BALL, h=h, beta1=beta)

    @classmethod
    def nesterov(cls, h: float, beta: float) -> "OptimizerSpec":
        return cls(Kind.NESTEROV, h=h, beta1=beta)

    @classmethod
    def adamw(cls, h, beta1, beta2, lam=0.0, eps=1e-8, bias_correction=True):
        return cls(Kind.ADAMW, h=h, beta1=beta1, beta2=beta2, lam=lam, eps=eps,
                   bias_correction=bias_correction)

    @classmethod
    def nadamw(cls, h, beta1, beta2, lam=0.0, eps=1e-8, bias_correction=True):
        return cls(Kind.NADAMW, h=h, beta1=beta1, beta2=beta2, lam=lam, eps=eps,
                   bias_correction=bias_correction)

    @classmethod
    def lion_k(cls, h, rho1, rho2, lam=0.0, eps=1e-8,
               kspec=KSpec.SMOOTHED_ONE_NORM, bias_correction=False):
        return cls(Kind.LION_K, h=h, beta1=rho1, beta2=rho2, lam=lam, eps=eps,
                   kspec=kspec, bias_correction=bias_correction)

    @classmethod
    def signum(cls, h, beta, lam=0.0, eps=1e-8, bias_correction=False):
        return cls(Kind.SIGNUM, h=h, beta1=beta, beta2=beta, lam=lam, eps=eps,
                   bias_correction=bias_correction)

    def with_h(self, h: float) -> "OptimizerSpec":
        return replace(self, h=h)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run bit-for-bit."""

    seed: int
    dimension: int
    horizon: float  # "time" horizon T; the iteration count is floor(T / h)
    loss_id: str
    loss_params: dict
    optimizer: OptimizerSpec
    theta0: Union[str, tuple] = "gauss"  # rule name or explicit coordinates
    theta0_scale: float = 1.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not (0.0 < self.horizon < math.inf):
            raise ValueError("horizon T must be finite and > 0")
        if not math.isfinite(self.theta0_scale):
            raise ValueError("theta0_scale must be finite")
        if not isinstance(self.theta0, str):
            try:
                as_param_vector(np.array(self.theta0, dtype=np.float64), self.dimension)
            except ValueError as exc:
                raise ValueError(f"theta0: {exc}") from exc

    def n_steps(self) -> int:
        """floor(T / h) for the optimizer's h."""
        return floor_steps(self.horizon, self.optimizer.h)

    def initial_theta(self) -> ParamVector:
        if isinstance(self.theta0, str):
            if self.theta0 == "zeros":
                return np.zeros(self.dimension)
            if self.theta0 == "ones":
                return np.ones(self.dimension)
            if self.theta0 == "gauss":
                g = rng(self.seed, "theta0")
                return self.theta0_scale * g.standard_normal(self.dimension)
            raise ValueError(f"unknown theta0 rule: {self.theta0!r}")
        return as_param_vector(np.array(self.theta0, dtype=np.float64), self.dimension)

    def with_optimizer(self, spec: OptimizerSpec) -> "RunConfig":
        return replace(self, optimizer=spec)


@dataclass(eq=False)
class Trajectory:
    """Ordered iterates of one run with per-step diagnostics.

    iterates has shape (n_recorded, d); row n is the accepted iterate at step
    n and t = n * h.  domain_exit records the step at which a run aborted, or
    None for a clean run; length is floor(T/h) + 1 unless an exit occurred.
    value is the loss's row-wise value oracle: loss_values is computed the
    first time it is read, in one call over every recorded iterate.
    """

    iterates: np.ndarray
    h: float
    T: float
    value: Callable[[np.ndarray], np.ndarray]
    domain_exit: Optional[int] = None
    meta: dict = field(default_factory=dict)

    @functools.cached_property
    def loss_values(self) -> np.ndarray:
        return np.asarray(self.value(self.iterates), dtype=np.float64)

    def __len__(self) -> int:
        return self.iterates.shape[0]

    def csv_rows(self):
        d = self.iterates.shape[1]
        header = ["step", "t"] + [f"theta_{i}" for i in range(d)] + ["loss"]
        rows = []
        for n in range(len(self)):
            rows.append([n, n * self.h, *self.iterates[n], self.loss_values[n]])
        return header, rows


def fmt_float(x) -> str:
    """Shortest round-trip decimal form, locale-free ('.' decimal point)."""
    return repr(float(x))


def write_csv(path, header: Sequence[str], rows) -> None:
    """Comma-separated, LF endings, mandatory header, full-precision floats."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(str(c) for c in header) + "\n")
        for row in rows:
            cells = [fmt_float(c) if isinstance(c, (float, np.floating)) else str(c)
                     for c in row]
            f.write(",".join(cells) + "\n")
