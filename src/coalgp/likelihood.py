"""Coalescent likelihoods: exact and augmented forms.

Everything is computed in log space; the sigmoid link and its complement go
through softplus so that f excursions far beyond +-30 stay finite.  The
augmented form is the density of the thinning construction: one accepted
point per coalescent event, a Poisson exposure term per interval, sigmoid
acceptance factors at coalescent points and complementary-sigmoid factors at
latent points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .genealogy import CoalescentData, IntervalGrid, build_interval_grid
from .gp_prior import LatentField
from .trajectories import Trajectory


def log_sigmoid(f):
    """log(1 / (1 + exp(-f))) as -softplus(-f): finite for every finite f.

    softplus(x) is split as max(x, 0) + log1p(exp(-|x|)), which on a field of
    thousands of values is several times faster than ``np.logaddexp``.
    """
    return np.minimum(f, 0.0) - np.log1p(np.exp(-np.abs(f)))


def sigmoid(f):
    """Logistic function; saturates to 0 and 1 without overflow.

    Kept on ``np.logaddexp``: the simulators call it on a handful of values,
    where the split form of :func:`log_sigmoid` is slower.
    """
    return np.exp(-np.logaddexp(0.0, np.negative(f)))


def ne_from_f(f, lam: float):
    """Population size under the sigmoidal link: (1 + exp(-f)) / lam.

    Always exceeds 1/lam.  Computed as exp(softplus(-f))/lam, which stays
    monotone and finite until the true value overflows float64.
    """
    if np.any(np.asarray(lam) <= 0):
        raise ValidationError("lam must be positive")
    with np.errstate(over="ignore"):  # saturates to inf below f ~ -745
        return np.exp(np.logaddexp(0.0, np.negative(f))) / lam


def log_coalescent_likelihood(d: CoalescentData, traj: Trajectory) -> float:
    """Exact log density of the observed coalescent times under ``traj``.

    Sum over events of the log intensity at the event minus the integrated
    intensity over the full inter-event span, from the trajectory's
    ``inv_ne_integral``.
    """
    grid = build_interval_grid(d)
    c = grid.coal_factor > 0
    hazard = float(np.sum(grid.coal_factor[c] * traj.inv_ne_integral(grid.starts[c], grid.ends[c])))
    ends = grid.ends[grid.ends_with_coal]
    factors = grid.coal_factor[grid.ends_with_coal]
    points = float(np.sum(np.log(factors) - np.log(traj.ne(ends))))
    return points - hazard


def log_augmented_likelihood(field: LatentField, grid: IntervalGrid, lam: float) -> float:
    """Log density of (coalescent times, latent points) given f-values and lam.

    The field must carry an f-value at every coalescent event of the grid and
    at every latent point; latent points must fall inside the grid's span.
    Each interval's latent count comes from the field through
    :meth:`IntervalGrid.latent_slices`.
    """
    if lam <= 0:
        return -math.inf
    coal_t = field.coal_times()
    if not np.array_equal(coal_t, grid.coal_event_times):
        raise ValidationError(
            "field coalescent times do not match the interval grid; an f-value "
            "is required at every coalescent event"
        )
    total = -lam * grid.total_hazard_weight
    f_coal = field.values[field.is_coal]
    factors = grid.coal_factor[grid.ends_with_coal]
    total += float(np.sum(np.log(lam * factors)) + np.sum(log_sigmoid(f_coal)))
    f_lat = field.values[~field.is_coal]
    _, count = grid.latent_slices(field.times)
    if count.sum() != len(f_lat):
        raise ValidationError("some times lie outside the genealogy's span")
    held = count > 0  # a zero count must not meet log(0) and give nan
    with np.errstate(divide="ignore"):
        total += float(np.sum(count[held] * np.log(lam * grid.coal_factor[held])))
    return total + float(np.sum(log_sigmoid(-f_lat)))


@dataclass(frozen=True)
class LambdaPrior:
    """Mixture prior for the thinning bound: uniform mass eps below the best
    guess ``lam_hat``, an exponential tail with scale ``lam_hat`` above it."""

    lam_hat: float = 10.0
    eps: float = 0.01

    def __post_init__(self):
        if self.lam_hat <= 0:
            raise ValidationError("lam_hat must be positive")
        if not 0.0 < self.eps < 1.0:
            raise ValidationError("eps must lie strictly between 0 and 1")


def lambda_log_prior(lam: float, prior: LambdaPrior) -> float:
    """Log density of the bound prior; -inf for lam <= 0.

    The boundary lam == lam_hat belongs to the exponential branch.
    """
    if lam <= 0:
        return -math.inf
    if lam < prior.lam_hat:
        return math.log(prior.eps) - math.log(prior.lam_hat)
    return (
        math.log1p(-prior.eps)
        - math.log(prior.lam_hat)
        - (lam - prior.lam_hat) / prior.lam_hat
    )
