"""Markov Gaussian process priors in innovations form.

Two kernels are supported: Brownian motion with a diffuse free initial level
(covariance (init_var + min(t, t'))/theta) and a stationary
Ornstein-Uhlenbeck process (covariance exp(-phi*|t - t'|)/theta).  Both are
Markov, so at sorted times t_1 < ... < t_d the law factors into innovations,
f_1 ~ N(0, v_1/theta) and f_i | f_{i-1} ~ N(rho_i f_{i-1}, v_i/theta)
(Rue & Held 2005).  The precision is tridiagonal, its bidiagonal Cholesky
factor is read off (rho, v) directly, every conditional draw depends only on
the two bracketing points, and density, quadratic form and prior draws are
O(d) array passes.  Only v carries theta, so the precision is theta * Q(1),
which the Gibbs update for theta relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EvaluationError, ValidationError, require_keys

LOG_2PI = math.log(2.0 * math.pi)
# A prior draw scales each chunk of the innovation sum by exp(-decay) with
# decay < this, far below exp overflow (~709) for any realistic point count.
_CHUNK_DECAY = 300.0
_TINY = np.finfo(float).tiny


class TridiagPrecision:
    """Precision of f_1 ~ N(0, var_1), f_i | f_{i-1} ~ N(rho_i f_{i-1}, var_i).

    ``rho[0]`` is not used.  The precision is R^T R with R lower bidiagonal,
    R_ii = 1/sd_i and R_{i,i-1} = -rho_i/sd_i (sd = sqrt(var)): the
    innovations are its Cholesky factor, so no factorization is computed.
    """

    def __init__(self, rho: np.ndarray, var: np.ndarray):
        self.rho = np.asarray(rho, dtype=float)
        self.var = np.asarray(var, dtype=float)
        if not np.all(self.var > 0):
            raise EvaluationError("times must be strictly increasing without duplicates")

    @property
    def size(self) -> int:
        return len(self.var)

    def _cholesky(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and subdiagonal of the lower bidiagonal factor R."""
        inv_sd = 1.0 / np.sqrt(self.var)
        return inv_sd, -self.rho[1:] * inv_sd[1:]

    @property
    def diag(self) -> np.ndarray:
        d, s = self._cholesky()
        out = d * d
        out[:-1] += s * s
        return out

    @property
    def off(self) -> np.ndarray:
        d, s = self._cholesky()
        return s * d[1:]

    def log_det(self) -> float:
        return -float(np.sum(np.log(self.var)))

    def _innovations(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        e = f.copy()
        e[1:] -= self.rho[1:] * f[:-1]
        return e

    def quad_form(self, f: np.ndarray) -> float:
        e = self._innovations(f)
        return float(np.dot(e, e / self.var))

    def matvec(self, f: np.ndarray) -> np.ndarray:
        y = self._innovations(f) / self.var
        y[:-1] -= self.rho[1:] * y[1:]
        return y

    def sample_zero_mean(self, rng: np.random.Generator) -> np.ndarray:
        """One draw from N(0, Q^{-1}): f_i = rho_i f_{i-1} + sd_i z_i.

        With decay_i = -log(rho_2 ... rho_i), f = P * cumsum(w / P) for
        P = exp(-decay) (a plain cumsum when every rho is 1).  The sum runs in
        chunks of decay span below _CHUNK_DECAY, each rescaled to its first
        point and seeded with the previous chunk's last value, so P never
        underflows and w / P never overflows.
        """
        w = np.sqrt(self.var) * rng.standard_normal(self.size)
        decay = np.zeros(self.size)
        # a rho that underflowed to 0 cuts a chunk and carries nothing over
        np.cumsum(-np.log(np.maximum(self.rho[1:], _TINY)), out=decay[1:])
        chunk = np.floor(decay / _CHUNK_DECAY)
        cuts = np.flatnonzero(chunk[1:] != chunk[:-1]) + 1
        f = np.empty(self.size)
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, self.size]):
            if lo:
                w[lo] += self.rho[lo] * f[lo - 1]
            p = np.exp(decay[lo] - decay[lo:hi])
            f[lo:hi] = p * np.cumsum(w[lo:hi] / p)
        return f

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
        """Theta-free precision Q(1); the full precision is theta * Q(1).

        Innovations: rho = 1, v_1 = t_1 + init_var, v_i = t_i - t_{i-1}.
        """
        u = self._shifted(times)
        return TridiagPrecision(np.ones(len(u)), np.diff(u, prepend=0.0))

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
        """Theta-free precision Q(1): rho = exp(-phi*gap), v = 1 - rho^2, v_1 = 1."""
        gaps = np.diff(np.asarray(times, dtype=float), prepend=-np.inf)
        rho = np.exp(-self.phi * gaps)
        return TridiagPrecision(rho, -np.expm1(-2.0 * self.phi * gaps))  # 1 - rho^2, stable for tiny gaps

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
    kind = require_keys(obj, ("kind",), "kernel")["kind"]
    if kind == "bm":
        require_keys(obj, ("theta", "init_var"), "bm kernel")
        return BrownianMotionKernel(theta=obj["theta"], init_var=obj["init_var"])
    if kind == "ou":
        require_keys(obj, ("theta", "phi"), "ou kernel")
        return OrnsteinUhlenbeckKernel(theta=obj["theta"], phi=obj["phi"])
    raise ValidationError(f"unknown kernel kind {kind!r}")


def build_precision(times: np.ndarray, kernel: GPKernel) -> TridiagPrecision:
    """Precision matrix of the kernel's finite-dimensional law at ``times``."""
    q = kernel.structure_tridiag(times)
    return TridiagPrecision(q.rho, q.var / kernel.theta)


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
