"""Deterministic effective-population-size trajectories.

A trajectory exposes N_e(t) on backward time t >= 0 together with the exact
pieces the simulators and likelihood need: the integrated inverse trajectory
(cumulative coalescent hazard up to a binomial factor), its inverse map, and
local suprema of 1/N_e used to build dominating envelopes for thinning.

The three families are the scenarios of the simulation study: ``constant``,
``expgrowth`` and ``boombust``.  Each has closed forms for all of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError, ValidationError


class Trajectory:
    """Base class of the closed-form families.

    Each family provides ``ne`` and ``inv_ne`` (N_e and 1/N_e at t),
    ``inv_ne_integral(a, b)`` (the integral of 1/N_e over [a, b], 0 when
    b <= a), ``solve_inv_ne_integral(a, target)`` (the t >= a at which that
    integral from a reaches ``target``), ``sup_inv_ne(a, b)`` (the supremum
    of 1/N_e over [a, b], the local thinning bound) and ``default_window()``
    (the lookahead width of the envelope built from that bound).  All work
    elementwise on arrays: the simulators call them once per round for a
    whole batch of replicates.
    """

    def ne(self, t):
        raise NotImplementedError

    def inv_ne(self, t):
        return 1.0 / self.ne(t)


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
