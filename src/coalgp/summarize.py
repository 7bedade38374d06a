"""Posterior summaries on a time grid and the evaluation metrics.

For every retained draw the f-values are extended to the requested grid from
the GP predictive (with that draw's theta), pushed through the sigmoidal link
with that draw's lambda, and reduced to pointwise median and central 95%
interval.  Quantiles use linear interpolation of order statistics (the
type-7 convention), computed as ``np.quantile``'s default computes them but
from a plain sort: ``np.quantile`` imports ``numpy.ma`` on first use.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ValidationError
from .gp_prior import predictive_grid_draw
from .likelihood import ne_from_f
from .mcmc import ChainOutput


@dataclass(frozen=True)
class PosteriorSummary:
    grid: np.ndarray
    median: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray
    extrapolated: np.ndarray  # grid points beyond the root time

    def write_csv(self, fh):
        fh.write("time,median,lo95,hi95,extrapolated\n")
        for t, md, lo, hi, ex in zip(self.grid, self.median, self.lo95, self.hi95, self.extrapolated):
            fh.write(f"{t:.17g},{md:.17g},{lo:.17g},{hi:.17g},{int(ex)}\n")


@dataclass(frozen=True)
class MetricReport:
    sre: float
    mrw: float
    envelope: float
    variation: float
    grid_size: int

    def to_json(self) -> dict:
        return {
            "sre": self.sre,
            "mrw": self.mrw,
            "envelope": self.envelope,
            "variation": self.variation,
            "grid_size": self.grid_size,
        }

    def write_json(self, fh):
        json.dump(self.to_json(), fh, indent=2)
        fh.write("\n")


def default_grid(chain: ChainOutput, size: int) -> np.ndarray:
    """Equally spaced grid from 0 to the root time, ``size`` points."""
    if not chain.draws:
        raise EvaluationError("chain holds no draws")
    tmrca = float(chain.draws[0].field.times[chain.draws[0].field.is_coal].max())
    return np.linspace(0.0, tmrca, size)


def summarize(chain: ChainOutput, grid, rng: np.random.Generator) -> PosteriorSummary:
    """Pointwise posterior median and 95% band of N_e on ``grid``.

    Grid points beyond the root are allowed (the GP predictive extrapolates)
    but flagged and warned about.
    """
    if not chain.draws:
        raise EvaluationError("chain holds no draws")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be a non-empty strictly increasing vector")
    tmrca = float(chain.draws[0].field.times[chain.draws[0].field.is_coal].max())
    extrapolated = grid > tmrca
    if np.any(extrapolated):
        warnings.warn(
            f"{int(extrapolated.sum())} grid points lie beyond the root time "
            f"{tmrca:.6g}; those values are prior-driven extrapolation",
            stacklevel=2,
        )
    kernel = chain.kernel
    ne = np.empty((len(chain.draws), len(grid)))
    # one substream per draw, keyed by its iteration number, so the summary
    # does not depend on the order draws are presented in
    master = int(rng.integers(np.iinfo(np.int64).max))
    for i, draw in enumerate(chain.draws):
        sub = np.random.Generator(
            np.random.Philox(seed=np.random.SeedSequence(master, spawn_key=(draw.iteration,)))
        )
        fg = predictive_grid_draw(draw.field, grid, kernel.with_theta(draw.theta), sub)
        ne[i] = ne_from_f(fg, draw.lam)
    # deep-negative f draws overflow N_e past float range; cap them so the
    # quantile interpolation stays finite and monotone
    np.minimum(ne, np.finfo(float).max, out=ne)
    lo, md, hi = _type7_quantiles(ne, np.array([0.025, 0.5, 0.975]))
    return PosteriorSummary(
        grid=grid, median=md, lo95=lo, hi95=hi, extrapolated=extrapolated
    )


def _type7_quantiles(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quantiles ``q`` of each column of ``x``, bit for bit as
    ``np.quantile(x, q, axis=0)``: between order statistics a and b at
    fraction g, numpy's lerp is a + (b - a) g, or b - (b - a)(1 - g) for
    g >= 0.5."""
    s = np.sort(x, axis=0)
    pos = (len(s) - 1) * q
    lo = np.floor(pos).astype(np.intp)
    a, b = s[lo], s[np.minimum(lo + 1, len(s) - 1)]
    g = (pos - lo)[:, None]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def _check_lengths(*arrays):
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if len({len(a) for a in arrays}) != 1:
        raise ValidationError("metric inputs must have equal lengths")
    return arrays


def sre(est, truth) -> float:
    """Sum over the grid of |estimate - truth| / truth."""
    est, truth = _check_lengths(est, truth)
    if np.any(truth <= 0):
        raise ValidationError("truth values must be positive")
    return float(np.sum(np.abs(est - truth) / truth))


def mrw(lower, upper, truth) -> float:
    """Mean over the grid of the interval width relative to the truth."""
    lower, upper, truth = _check_lengths(lower, upper, truth)
    if np.any(truth <= 0):
        raise ValidationError("truth values must be positive")
    if np.any(lower > upper):
        raise ValidationError("lower band exceeds upper band")
    return float(np.sum((upper - lower) / truth) / len(truth))


def envelope(lower, upper, truth) -> float:
    """Fraction of grid points whose interval covers the truth."""
    lower, upper, truth = _check_lengths(lower, upper, truth)
    return float(np.mean((lower <= truth) & (truth <= upper)))


def variation(est) -> float:
    """Total absolute increment of the estimate along a regular grid."""
    est = np.asarray(est, dtype=float)
    if len(est) < 2:
        raise ValidationError("variation needs at least two grid points")
    return float(np.sum(np.abs(np.diff(est))))


def metric_report(summary: PosteriorSummary, truth_values) -> MetricReport:
    truth_values = np.asarray(truth_values, dtype=float)
    return MetricReport(
        sre=sre(summary.median, truth_values),
        mrw=mrw(summary.lo95, summary.hi95, truth_values),
        envelope=envelope(summary.lo95, summary.hi95, truth_values),
        variation=variation(summary.median),
        grid_size=len(summary.grid),
    )
