"""Deterministic effective-population-size trajectories.

A trajectory exposes N_e(t) on backward time t >= 0 together with the exact
pieces the simulators and likelihood need: the integrated inverse trajectory
(cumulative coalescent hazard up to a binomial factor), its inverse map, and
local suprema of 1/N_e used to build dominating envelopes for thinning.

The three named trajectories used throughout (``constant``, ``expgrowth``,
``boombust``) carry closed forms; arbitrary callables fall back to adaptive
quadrature and monotone bracketing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, SimulationError, ValidationError

QUAD_ABS_TOL = 1e-10
SOLVE_TIME_TOL = 1e-12
_MAX_BRACKET_DOUBLINGS = 200


def _elementwise(fn, *args):
    """``fn`` of scalars mapped over its broadcast array arguments."""
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in args))
    flat = [fn(*map(float, xs)) for xs in zip(*(a.flat for a in arrays))]
    return np.asarray(flat, dtype=float).reshape(arrays[0].shape)[()]


class Trajectory:
    """Base class; subclasses must provide ``ne`` and may override the rest.

    ``inv_ne_integral``, ``solve_inv_ne_integral`` and ``sup_inv_ne`` work
    elementwise on arrays (the simulators call them once per round for a
    whole batch of replicates); the quadrature fallbacks here loop over the
    elements.
    """

    def ne(self, t):
        raise NotImplementedError

    def inv_ne(self, t):
        return 1.0 / self.ne(t)

    def inv_ne_integral(self, a, b):
        """Integral of 1/N_e over [a, b], to absolute tolerance 1e-10."""
        return _elementwise(self._quad_inv_ne, a, b)

    def _quad_inv_ne(self, a: float, b: float) -> float:
        from scipy import integrate  # deferred: only CallableTrajectory gets here

        if b <= a:
            return 0.0
        value, err = integrate.quad(self.inv_ne, a, b, epsabs=QUAD_ABS_TOL, limit=200)
        if not np.isfinite(value) or err > max(QUAD_ABS_TOL * 10, abs(value) * 1e-8):
            raise EvaluationError(
                f"quadrature of 1/N_e over [{a}, {b}] did not converge (err={err:.3g})"
            )
        return value

    def solve_inv_ne_integral(self, a, target):
        """Smallest t >= a with integral_a^t 1/N_e = target (monotone inversion)."""
        return _elementwise(self._solve_one, a, target)

    def _solve_one(self, a: float, target: float) -> float:
        from scipy import optimize  # deferred: only CallableTrajectory gets here

        if target <= 0.0:
            return a
        step = 1.0
        hi = a + step
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            if self._quad_inv_ne(a, hi) >= target:
                break
            step *= 2.0
            hi = a + step
        else:
            raise SimulationError(
                "cumulative hazard never reached the target; "
                "integral of 1/N_e appears to converge"
            )
        return optimize.brentq(
            lambda t: self._quad_inv_ne(a, t) - target, a, hi, xtol=SOLVE_TIME_TOL
        )

    def sup_inv_ne(self, a, b):
        """Supremum of 1/N_e over [a, b]; used as a local thinning bound."""
        raise EvaluationError(
            "no local bound available for this trajectory; supply a certified "
            "global bound instead"
        )

    def default_window(self) -> float | None:
        """Lookahead width for piecewise-constant envelopes (None: not usable)."""
        return None


@dataclass(frozen=True)
class ConstantTrajectory(Trajectory):
    """N_e(t) = value."""

    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValidationError("constant trajectory requires a positive size")

    def ne(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def inv_ne(self, t):
        return np.full_like(np.asarray(t, dtype=float), 1.0 / self.value)

    def inv_ne_integral(self, a, b):
        return np.maximum(np.subtract(b, a), 0.0) / self.value

    def solve_inv_ne_integral(self, a, target):
        return a + target * self.value

    def sup_inv_ne(self, a, b):
        return 1.0 / self.value

    def default_window(self):
        return math.inf


@dataclass(frozen=True)
class ExpGrowthTrajectory(Trajectory):
    """N_e(t) = n0 * exp(-rate * t); rate > 0 decays backward in time."""

    n0: float
    rate: float

    def __post_init__(self):
        if self.n0 <= 0:
            raise ValidationError("expgrowth trajectory requires n0 > 0")

    def ne(self, t):
        return self.n0 * np.exp(-self.rate * np.asarray(t, dtype=float))

    def inv_ne(self, t):
        return np.exp(self.rate * np.asarray(t, dtype=float)) / self.n0

    def inv_ne_integral(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.maximum(b, a)  # an empty interval integrates to 0
        r = self.rate
        if r == 0.0:
            return (b - a) / self.n0
        return (np.exp(r * b) - np.exp(r * a)) / (r * self.n0)

    def solve_inv_ne_integral(self, a, target):
        r = self.rate
        a = np.asarray(a, dtype=float)
        target = np.asarray(target, dtype=float)
        if r == 0.0:
            out = a + target * self.n0
        else:
            arg = np.exp(r * a) + r * self.n0 * target
            if np.any(arg <= 0.0):
                raise SimulationError(
                    "hazard integral converges before reaching the target "
                    "(expgrowth with negative rate)"
                )
            out = np.log(arg) / r
        return float(out) if out.ndim == 0 else out

    def sup_inv_ne(self, a, b):
        # 1/N_e is monotone: the supremum sits at the end it grows toward
        return self.inv_ne(b if self.rate > 0 else a)

    def default_window(self):
        if self.rate == 0.0:
            return math.inf
        return 0.5 / abs(self.rate)


@dataclass(frozen=True)
class BoomBustTrajectory(Trajectory):
    """Exponential expansion up to ``peak_time``, exponential crash after.

    N_e(t) = exp(growth * t) for t <= peak_time and
    exp(growth * peak_time - decay * (t - peak_time)) afterwards, so the
    trajectory is continuous at the peak.
    """

    growth: float = 4.0
    peak_time: float = 0.5
    decay: float = 2.0

    def __post_init__(self):
        if self.growth <= 0 or self.decay <= 0 or self.peak_time <= 0:
            raise ValidationError("boombust requires positive growth, decay, peak_time")

    def ne(self, t):
        t = np.asarray(t, dtype=float)
        g, s, d = self.growth, self.peak_time, self.decay
        return np.exp(np.where(t <= s, g * t, g * s - d * (t - s)))

    def inv_ne(self, t):
        return 1.0 / self.ne(t)

    def inv_ne_integral(self, a, b):
        g, s, d = self.growth, self.peak_time, self.decay
        a = np.asarray(a, dtype=float)
        b = np.maximum(b, a)  # an empty interval integrates to 0
        # growth piece on [a, min(b, s)], crash piece on [max(a, s), b]
        rise = np.where(a < s, (np.exp(-g * a) - np.exp(-g * np.minimum(b, s))) / g, 0.0)
        crash = math.exp(-g * s) * (np.exp(d * (b - s)) - np.exp(d * (np.maximum(a, s) - s))) / d
        return rise + np.where(b > s, crash, 0.0)

    def solve_inv_ne_integral(self, a, target):
        g, s, d = self.growth, self.peak_time, self.decay
        a = np.asarray(a, dtype=float)
        target = np.asarray(target, dtype=float)
        to_peak = np.where(a < s, (np.exp(-g * np.minimum(a, s)) - math.exp(-g * s)) / g, 0.0)
        # first piece: exp(-g a) - exp(-g t) = g * target
        first = -np.log(np.maximum(np.exp(-g * np.minimum(a, s)) - g * np.minimum(target, to_peak), 1e-300)) / g
        # second piece starts at max(a, s) with the leftover hazard
        rem = target - to_peak
        lo = np.maximum(a, s)
        second = s + np.log(np.exp(d * (lo - s)) + d * np.maximum(rem, 0.0) * math.exp(g * s)) / d
        out = np.where(target <= to_peak, first, second)
        return float(out) if out.ndim == 0 else out

    def sup_inv_ne(self, a, b):
        # 1/N_e decreases to the peak and increases after it: the larger end
        finite = np.isfinite(b)
        ends = np.maximum(self.inv_ne(a), self.inv_ne(np.where(finite, b, a)))
        return np.where(finite, ends, math.inf)[()]

    def default_window(self):
        return 0.5 / max(self.growth, self.decay)


@dataclass(frozen=True)
class CallableTrajectory(Trajectory):
    """Wrap an arbitrary positive function of backward time.

    ``bound``, when given, is a user-certified global upper bound on 1/N_e and
    doubles as the local supremum on every window.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    bound: float | None = None

    def ne(self, t):
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)

    def sup_inv_ne(self, a, b):
        if self.bound is None:
            return super().sup_inv_ne(a, b)
        return self.bound

    def default_window(self):
        return math.inf if self.bound is not None else None


def parse_trajectory(spec: str) -> Trajectory:
    """Parse a CLI trajectory spec such as ``constant:1`` or ``expgrowth:25,5``.

    Known names: ``constant:<size>``, ``expgrowth:<n0>,<rate>``,
    ``boombust[:<growth>,<peak_time>,<decay>]``.
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    args = [float(x) for x in argstr.split(",")] if argstr.strip() else []
    if not all(math.isfinite(a) for a in args):
        raise ValueError(f"trajectory parameters must be finite, got {argstr!r}")
    if name == "constant":
        if len(args) != 1:
            raise ValueError("constant takes exactly one parameter: constant:<size>")
        return ConstantTrajectory(args[0])
    if name == "expgrowth":
        if len(args) != 2:
            raise ValueError("expgrowth takes two parameters: expgrowth:<n0>,<rate>")
        return ExpGrowthTrajectory(args[0], args[1])
    if name == "boombust":
        if args and len(args) != 3:
            raise ValueError("boombust takes zero or three parameters")
        return BoomBustTrajectory(*args) if args else BoomBustTrajectory()
    raise ValueError(f"unknown trajectory {name!r}; expected constant|expgrowth|boombust")
