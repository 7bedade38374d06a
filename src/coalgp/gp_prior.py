"""Markov Gaussian process priors in innovations form.

Two kernels are supported: Brownian motion with a diffuse free initial level
(covariance (init_var + min(t, t'))/theta) and a stationary
Ornstein-Uhlenbeck process (covariance exp(-phi*|t - t'|)/theta).  Both are
Markov, and a kernel states only its increment law: ``innovation(t0, t1)``
gives the theta-free (rho, v) with f(t1) | f(t0) ~ N(rho f(t0), v/theta),
where t0 = -inf stands for the start of the process (Rue & Held 2005).
Everything else derives from it.  At sorted times the innovations are the
bidiagonal Cholesky factor of the tridiagonal precision, so density,
quadratic form and prior draws are O(d) array passes; a conditional draw
needs only the two bracketing points, and one array routine draws any set of
new times given a field.  Only v carries theta, so the precision is
theta * Q(1), which the Gibbs update for theta relies on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

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

    def scaled(self, theta: float) -> "TridiagPrecision":
        """theta times this precision: only the innovation variances change."""
        return TridiagPrecision(self.rho, self.var / theta)

    def _cholesky(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and subdiagonal of the lower bidiagonal factor R."""
        inv_sd = 1.0 / np.sqrt(self.var)
        return inv_sd, -self.rho[1:] * inv_sd[1:]

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

    def log_density(self, f: np.ndarray) -> float:
        """Log density of N(0, Q^{-1}) at f."""
        return 0.5 * (self.log_det() - self.size * LOG_2PI - self.quad_form(f))

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
        """The precision R^T R as a dense matrix."""
        d, s = self._cholesky()
        r = np.diag(d) + np.diag(s, -1)
        return r.T @ r


class _MarkovKernel:
    """Everything a kernel needs beyond its increment law ``innovation``."""

    def with_theta(self, theta: float):
        return replace(self, theta=theta)

    def cond_moments_many(self, t, left_t, left_f, right_t, right_f):
        """Mean and variance of f(t) given its bracketing known values.

        Elementwise over arrays.  A missing left neighbour has time -inf and a
        missing right one +inf, each with value 0.  With (r1, v1) the
        innovation from the left point to t and (r2, v2) from t to the right
        point, the right point observes f(t) with gain r2 and noise v2, so
        with q = r2 v1 / v2 the conditional is a one-step Kalman update.  A
        missing right point has q = 0.
        """
        r1, v1 = self.innovation(left_t, t)
        r2, v2 = self.innovation(t, right_t)
        q = r2 * v1 / v2
        den = 1.0 + r2 * q
        mean = r1 * left_f + (q / den) * (right_f - r2 * r1 * left_f)
        return mean, v1 / (den * self.theta)


def _steps(times):
    """(previous time, time) pairs along sorted ``times``, -inf before the first."""
    t = np.asarray(times, dtype=float)
    return np.concatenate(([-np.inf], t[:-1])), t


@dataclass(frozen=True)
class BrownianMotionKernel(_MarkovKernel):
    """Brownian motion, free initial level with variance init_var/theta."""

    theta: float = 1.0
    init_var: float = 100.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValidationError("theta must be finite and positive")
        if not (math.isfinite(self.init_var) and self.init_var >= 0):
            raise ValidationError("init_var must be finite and non-negative")

    def innovation(self, t0, t1):
        """Theta-free increment law from t0 to t1: rho = 1, v = t1 - t0.
        t0 = -inf is the pinned start of the motion in shifted time
        u = t + init_var (u = 0 with f = 0), so there v = t1 + init_var.
        The gap is taken in t, not as a difference of shifted times, which
        would round gaps below ulp(init_var) to 0."""
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        u1 = t1 + self.init_var
        if np.any(u1 <= 0):
            raise EvaluationError(
                "Brownian motion with init_var=0 is pinned to 0 at t=0; "
                "all times must satisfy t + init_var > 0"
            )
        v = np.where(np.isneginf(t0), u1, t1 - t0)
        return np.ones_like(v), v

    def structure_tridiag(self, times: np.ndarray) -> TridiagPrecision:
        """Theta-free precision Q(1); the full precision is theta * Q(1)."""
        return TridiagPrecision(*self.innovation(*_steps(times)))


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel(_MarkovKernel):
    """Stationary OU process: variance 1/theta, mean-reversion rate phi."""

    theta: float = 1.0
    phi: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.theta, self.phi)):
            raise ValidationError("theta and phi must be finite and positive")

    def innovation(self, t0, t1):
        """Theta-free increment law from t0 to t1: rho = exp(-phi*gap),
        v = 1 - rho^2.  t0 = -inf is the stationary start, rho = 0, v = 1."""
        gap = np.asarray(t1, dtype=float) - t0
        return np.exp(-self.phi * gap), -np.expm1(-2.0 * self.phi * gap)  # 1 - rho^2, stable for tiny gaps

    def structure_tridiag(self, times: np.ndarray) -> TridiagPrecision:
        """Theta-free precision Q(1); the full precision is theta * Q(1)."""
        return TridiagPrecision(*self.innovation(*_steps(times)))


GPKernel = BrownianMotionKernel | OrnsteinUhlenbeckKernel
_KINDS = {BrownianMotionKernel: "bm", OrnsteinUhlenbeckKernel: "ou"}  # each kernel's name in JSON records


def kernel_to_json(kernel: GPKernel) -> dict:
    return {"kind": _KINDS[type(kernel)], **asdict(kernel)}


def kernel_from_json(obj: dict) -> GPKernel:
    kind = require_keys(obj, ("kind",), "kernel")["kind"]
    cls = next((c for c, name in _KINDS.items() if name == kind), None)
    if cls is None:
        raise ValidationError(f"unknown kernel kind {kind!r}")
    names = [f.name for f in fields(cls)]
    require_keys(obj, names, f"{kind} kernel")
    return cls(**{name: obj[name] for name in names})


def build_precision(times: np.ndarray, kernel: GPKernel) -> TridiagPrecision:
    """Precision matrix of the kernel's finite-dimensional law at ``times``."""
    return kernel.structure_tridiag(times).scaled(kernel.theta)


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

    def insert(self, t: float, value: float) -> int:
        j = int(np.searchsorted(self.times, t))
        if (j < self.size and self.times[j] == t) or (j > 0 and self.times[j - 1] == t):
            raise EvaluationError(f"time {t} already present in the field")
        self.times = self._inserted(self.times, j, t)
        self.values = self._inserted(self.values, j, value)
        self.is_coal = self._inserted(self.is_coal, j, False)
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

    def coal_times(self) -> np.ndarray:
        return self.times[self.is_coal]


def run_rank(keys: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal consecutive keys."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return np.arange(len(keys)) - np.flatnonzero(starts)[np.cumsum(starts) - 1]


def conditional_draw_at(
    field: LatentField, t: float, kernel: GPKernel, rng: np.random.Generator
) -> float:
    """One exact draw of f(t) given the field (t must not collide)."""
    j = int(np.searchsorted(field.times, t))
    if j < field.size and field.times[j] == t:
        raise EvaluationError(f"time {t} already present in the field")
    return float(predictive_grid_draw(field, [t], kernel, rng)[0])


def predictive_grid_draw(
    field: LatentField,
    times: np.ndarray,
    kernel: GPKernel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Joint exact draw of f at sorted ``times`` given the field.

    Times on field points copy their values.  The new times inside one field
    gap are drawn in time order, each given the previous one (or the gap's
    left end) and the gap's right end, which by the Markov property is the
    full conditional.  Gaps are conditionally independent, so pass k draws
    the k-th new time of every gap at once; the normals are read in time
    order.
    """
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise EvaluationError("times must be strictly increasing")
    # the field padded with its missing neighbours; gap g lies between
    # padded points g and g + 1
    pad_t = np.concatenate(([-np.inf], field.times, [np.inf]))
    pad_f = np.concatenate(([0.0], field.values, [0.0]))
    gap = np.searchsorted(field.times, times)
    on = pad_t[gap + 1] == times
    out = pad_f[gap + 1]  # a fancy-indexed copy; new times are overwritten
    new = np.flatnonzero(~on)
    gap, t = gap[new], times[new]
    left_t, left_f = pad_t[gap], pad_f[gap]
    z = rng.standard_normal(len(new))
    rank = run_rank(gap)
    for k in range(int(rank.max(initial=-1)) + 1):
        rows = np.flatnonzero(rank == k)
        if k:
            left_t[rows], left_f[rows] = t[rows - 1], out[new[rows - 1]]
        g = gap[rows]
        mean, var = kernel.cond_moments_many(t[rows], left_t[rows], left_f[rows], pad_t[g + 1], pad_f[g + 1])
        out[new[rows]] = mean + np.sqrt(var) * z[rows]
    return out
