"""Markov Gaussian process priors with tridiagonal precision.

Two kernels are supported: Brownian motion with a diffuse free initial level
(covariance (init_var + min(t, t'))/theta) and a stationary
Ornstein-Uhlenbeck process (covariance exp(-phi*|t - t'|)/theta).  Both are
Markov, so any finite-dimensional precision matrix is tridiagonal, every
conditional draw depends only on the two bracketing points, and all density
work is O(d).  The precision of either kernel factorizes as theta * Q(1),
which the Gibbs update for theta relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .errors import EvaluationError

LOG_2PI = math.log(2.0 * math.pi)


class TridiagPrecision:
    """Symmetric positive-definite tridiagonal matrix with banded Cholesky."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag = np.asarray(diag, dtype=float)
        self.off = np.asarray(off, dtype=float)
        self._chol = None

    @property
    def size(self) -> int:
        return len(self.diag)

    def _cholesky(self) -> np.ndarray:
        if self._chol is None:
            ab = np.zeros((2, self.size))
            ab[0, 1:] = self.off
            ab[1, :] = self.diag
            try:
                self._chol = linalg.cholesky_banded(ab, lower=False)
            except linalg.LinAlgError as exc:
                raise EvaluationError(f"precision matrix is not positive definite: {exc}") from exc
        return self._chol

    def log_det(self) -> float:
        cb = self._cholesky()
        return 2.0 * float(np.sum(np.log(cb[1])))

    def quad_form(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=float)
        q = float(np.dot(f * f, self.diag))
        if self.size > 1:
            q += 2.0 * float(np.dot(self.off, f[:-1] * f[1:]))
        return q

    def matvec(self, f: np.ndarray) -> np.ndarray:
        out = self.diag * f
        if self.size > 1:
            out[:-1] += self.off * f[1:]
            out[1:] += self.off * f[:-1]
        return out

    def sample_zero_mean(self, rng: np.random.Generator) -> np.ndarray:
        """One draw from N(0, Q^{-1}) via a banded triangular solve."""
        z = rng.standard_normal(self.size)
        return linalg.solve_banded((0, 1), self._cholesky(), z)

    def dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        if self.size > 1:
            idx = np.arange(self.size - 1)
            out[idx, idx + 1] = self.off
            out[idx + 1, idx] = self.off
        return out


class _MarkovKernel:
    """Scalar front end shared by the kernels' array conditional moments."""

    def cond_moments(self, t, left, right):
        """Mean and variance of f(t) given its bracketing known values.

        ``left``/``right`` are (time, value) pairs or None; the Markov
        property makes these two points sufficient.
        """
        left_t, left_f = left if left is not None else (-math.inf, 0.0)
        right_t, right_f = right if right is not None else (math.inf, 0.0)
        mean, var = self.cond_moments_many(t, left_t, left_f, right_t, right_f)
        return float(mean), float(var)


@dataclass(frozen=True)
class BrownianMotionKernel(_MarkovKernel):
    """Brownian motion, free initial level with variance init_var/theta."""

    theta: float = 1.0
    init_var: float = 100.0

    def __post_init__(self):
        if self.theta <= 0:
            raise EvaluationError("theta must be positive")
        if self.init_var < 0:
            raise EvaluationError("init_var must be non-negative")

    def with_theta(self, theta: float) -> "BrownianMotionKernel":
        return replace(self, theta=theta)

    def _shifted(self, times: np.ndarray) -> np.ndarray:
        u = np.asarray(times, dtype=float) + self.init_var
        if np.any(u <= 0):
            raise EvaluationError(
                "Brownian motion with init_var=0 is pinned to 0 at t=0; "
                "all times must satisfy t + init_var > 0"
            )
        return u

    def structure_tridiag(self, times: np.ndarray) -> TridiagPrecision:
        """Theta-free precision Q(1); the full precision is theta * Q(1)."""
        u = self._shifted(times)
        gaps = np.diff(u)
        if np.any(gaps <= 0):
            raise EvaluationError("times must be strictly increasing without duplicates")
        d = len(u)
        diag = np.zeros(d)
        diag[0] = 1.0 / u[0]
        if d > 1:
            inv = 1.0 / gaps
            diag[0] += inv[0]
            diag[1:] += inv
            diag[1:-1] += inv[1:]
            off = -inv
        else:
            off = np.zeros(0)
        return TridiagPrecision(diag, off)

    def covariance(self, times: np.ndarray) -> np.ndarray:
        u = self._shifted(times)
        return np.minimum.outer(u, u) / self.theta

    def cond_moments_many(self, t, left_t, left_f, right_t, right_f):
        """Mean and variance of f(t) given its bracketing known values.

        Every argument may be an array (elementwise).  A missing left
        neighbour has time -inf and stands for the pinned start of the
        shifted motion (u = 0, f = 0); a missing right neighbour has time
        +inf.  The values of missing neighbours must be 0.
        """
        u = t + self.init_var
        ul = np.maximum(left_t + self.init_var, 0.0)
        if np.any(u <= ul):
            raise EvaluationError("time precedes the pinned start of the motion")
        ur = right_t + self.init_var
        gap_l, gap_r = u - ul, ur - u
        w = gap_l / (ur - ul)  # 0 without a right neighbour
        mean = left_f + w * (right_f - left_f)
        var = gap_l / ((1.0 + gap_l / gap_r) * self.theta)
        return mean, var


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel(_MarkovKernel):
    """Stationary OU process: variance 1/theta, mean-reversion rate phi."""

    theta: float = 1.0
    phi: float = 1.0

    def __post_init__(self):
        if self.theta <= 0 or self.phi <= 0:
            raise EvaluationError("theta and phi must be positive")

    def with_theta(self, theta: float) -> "OrnsteinUhlenbeckKernel":
        return replace(self, theta=theta)

    def structure_tridiag(self, times: np.ndarray) -> TridiagPrecision:
        t = np.asarray(times, dtype=float)
        gaps = np.diff(t)
        if np.any(gaps <= 0):
            raise EvaluationError("times must be strictly increasing without duplicates")
        d = len(t)
        if d == 1:
            return TridiagPrecision(np.ones(1), np.zeros(0))
        rho = np.exp(-self.phi * gaps)
        den = -np.expm1(-2.0 * self.phi * gaps)  # 1 - rho^2, stable for tiny gaps
        diag = np.zeros(d)
        diag[0] = 1.0 + rho[0] ** 2 / den[0]
        diag[-1] = 1.0 / den[-1]
        if d > 2:
            diag[1:-1] = 1.0 / den[:-1] + rho[1:] ** 2 / den[1:]
        off = -rho / den
        return TridiagPrecision(diag, off)

    def covariance(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        return np.exp(-self.phi * np.abs(np.subtract.outer(t, t))) / self.theta

    def cond_moments_many(self, t, left_t, left_f, right_t, right_f):
        """Mean and variance of f(t) given its bracketing known values.

        Elementwise over arrays.  A missing neighbour has time -inf (left) or
        +inf (right) and value 0; the formulas need no special case, as its
        correlation exp(-phi * inf) is 0.
        """
        gap_l, gap_r = t - left_t, right_t - t
        rl, rr = np.exp(-self.phi * gap_l), np.exp(-self.phi * gap_r)
        dl, dr = -np.expm1(-2.0 * self.phi * gap_l), -np.expm1(-2.0 * self.phi * gap_r)
        den = 1.0 - (rl * rr) ** 2
        mean = (rl * dr * left_f + rr * dl * right_f) / den
        var = dl * dr / (den * self.theta)
        return mean, var


GPKernel = BrownianMotionKernel | OrnsteinUhlenbeckKernel


def kernel_to_json(kernel: GPKernel) -> dict:
    if isinstance(kernel, BrownianMotionKernel):
        return {"kind": "bm", "theta": kernel.theta, "init_var": kernel.init_var}
    return {"kind": "ou", "theta": kernel.theta, "phi": kernel.phi}


def kernel_from_json(obj: dict) -> GPKernel:
    kind = obj.get("kind")
    if kind == "bm":
        return BrownianMotionKernel(theta=obj["theta"], init_var=obj["init_var"])
    if kind == "ou":
        return OrnsteinUhlenbeckKernel(theta=obj["theta"], phi=obj["phi"])
    raise EvaluationError(f"unknown kernel kind {kind!r}")


def build_precision(times: np.ndarray, kernel: GPKernel) -> TridiagPrecision:
    """Precision matrix of the kernel's finite-dimensional law at ``times``."""
    q = kernel.structure_tridiag(times)
    return TridiagPrecision(q.diag * kernel.theta, q.off * kernel.theta)


def log_prior_density(times: np.ndarray, values: np.ndarray, kernel: GPKernel) -> float:
    """Log density of the zero-mean Gaussian with the kernel's covariance."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) == 0:
        return 0.0
    q = build_precision(times, kernel)
    return 0.5 * (q.log_det() - len(times) * LOG_2PI - q.quad_form(values))


class LatentField:
    """Sorted time points with GP values; coalescent points flagged.

    This is the f-vector container shared by the simulators and the sampler:
    observed coalescent times are permanent, latent (thinned) points come and
    go.  Mutating operations keep the arrays sorted.
    """

    __slots__ = ("times", "values", "is_coal")

    def __init__(self, times=(), values=(), is_coal=()):
        self.times = np.asarray(times, dtype=float).copy()
        self.values = np.asarray(values, dtype=float).copy()
        self.is_coal = np.asarray(is_coal, dtype=bool).copy()
        if not (len(self.times) == len(self.values) == len(self.is_coal)):
            raise EvaluationError("field arrays must have equal lengths")
        if np.any(np.diff(self.times) <= 0):
            raise EvaluationError("field times must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.times)

    def copy(self) -> "LatentField":
        return LatentField(self.times, self.values, self.is_coal)

    def neighbors(self, t: float):
        """Bracketing (time, value) pairs around t, None past either end."""
        j = int(np.searchsorted(self.times, t))
        left = (self.times[j - 1], self.values[j - 1]) if j > 0 else None
        right = (self.times[j], self.values[j]) if j < self.size else None
        return left, right, j

    @staticmethod
    def _inserted(arr, j, value):
        out = np.empty(len(arr) + 1, dtype=arr.dtype)
        out[:j] = arr[:j]
        out[j] = value
        out[j + 1 :] = arr[j:]
        return out

    @staticmethod
    def _removed(arr, j):
        out = np.empty(len(arr) - 1, dtype=arr.dtype)
        out[:j] = arr[:j]
        out[j:] = arr[j + 1 :]
        return out

    def insert(self, t: float, value: float, is_coal: bool = False) -> int:
        j = int(np.searchsorted(self.times, t))
        if (j < self.size and self.times[j] == t) or (j > 0 and self.times[j - 1] == t):
            raise EvaluationError(f"time {t} already present in the field")
        self.times = self._inserted(self.times, j, t)
        self.values = self._inserted(self.values, j, value)
        self.is_coal = self._inserted(self.is_coal, j, is_coal)
        return j

    def remove(self, index: int):
        self.times = self._removed(self.times, index)
        self.values = self._removed(self.values, index)
        self.is_coal = self._removed(self.is_coal, index)

    def splice(self, remove: np.ndarray, at: np.ndarray, times: np.ndarray, values: np.ndarray):
        """Delete the points at indices ``remove`` and insert latent points
        (``times``, ``values``) before the current indices ``at`` (ascending),
        in one insert and one delete per array.  Each new time must lie
        strictly between the field times around its index, so the field
        stays sorted.
        """
        moved = remove + np.searchsorted(at, remove, side="right")
        self.times = np.delete(np.insert(self.times, at, times), moved)
        self.values = np.delete(np.insert(self.values, at, values), moved)
        self.is_coal = np.delete(np.insert(self.is_coal, at, False), moved)

    def latent_times(self) -> np.ndarray:
        return self.times[~self.is_coal]

    def coal_times(self) -> np.ndarray:
        return self.times[self.is_coal]


def conditional_draw_at(
    field: LatentField, t: float, kernel: GPKernel, rng: np.random.Generator
) -> float:
    """One exact draw of f(t) given the field (t must not collide)."""
    left, right, _ = field.neighbors(t)
    if (left is not None and left[0] == t) or (right is not None and right[0] == t):
        raise EvaluationError(f"time {t} already present in the field")
    mean, var = kernel.cond_moments(t, left, right)
    return mean + math.sqrt(var) * rng.standard_normal()


def conditional_draw(
    field: LatentField,
    new_times: np.ndarray,
    kernel: GPKernel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Joint exact draw of f at ``new_times`` given the field.

    New points are processed in increasing order, each conditioning on the
    nearest known point on either side (field points and previously drawn new
    points), which by the Markov property reproduces the full conditional.
    """
    new_times = np.asarray(new_times, dtype=float)
    order = np.argsort(new_times, kind="stable")
    out = np.empty(len(new_times))
    last: tuple[float, float] | None = None
    for idx in order:
        t = float(new_times[idx])
        left, right, _ = field.neighbors(t)
        if (left is not None and left[0] == t) or (right is not None and right[0] == t):
            raise EvaluationError(f"time {t} already present in the field")
        if last is not None and (left is None or last[0] > left[0]):
            left = last
        mean, var = kernel.cond_moments(t, left, right)
        val = mean + math.sqrt(var) * rng.standard_normal()
        out[idx] = val
        last = (t, val)
    return out


def predictive_grid_draw(
    field: LatentField,
    grid: np.ndarray,
    kernel: GPKernel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Joint draw of f on a sorted grid; grid points on field times copy them."""
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise EvaluationError("grid must be strictly increasing")
    out = np.empty(len(grid))
    last: tuple[float, float] | None = None
    for i, t in enumerate(grid):
        t = float(t)
        left, right, j = field.neighbors(t)
        if right is not None and right[0] == t:
            out[i] = right[1]
            last = (t, right[1])
            continue
        if last is not None and (left is None or last[0] > left[0]):
            left = last
        mean, var = kernel.cond_moments(t, left, right)
        val = mean + math.sqrt(var) * rng.standard_normal()
        out[i] = val
        last = (t, val)
    return out
