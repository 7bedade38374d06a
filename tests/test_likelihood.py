"""Exact, augmented, and hyperprior densities.

The augmented-vs-marginal Monte Carlo check integrates the augmented density
over latent configurations with an importance proposal whose density is the
dominating Poisson process, which must recover the exact likelihood.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit, log_expit

from coalgp.errors import ValidationError
from coalgp.genealogy import CoalescentData, build_interval_grid
from coalgp.gp_prior import LatentField
from coalgp.likelihood import (
    LambdaPrior,
    lambda_log_prior,
    log_augmented_likelihood,
    log_coalescent_likelihood,
    log_sigmoid,
    ne_from_f,
    sigmoid,
)
from coalgp.trajectories import ConstantTrajectory, ExpGrowthTrajectory, Trajectory
import geweke
from conftest import random_hetero_data

HETERO = CoalescentData([0.3, 1.0], [0.0, 0.5], [2, 1])


class TestSigmoidLink:
    def test_examples(self):
        assert ne_from_f(0.0, 2.0) == pytest.approx(1.0)
        assert ne_from_f(800.0, 4.0) == pytest.approx(0.25)
        assert ne_from_f(math.log(3.0), 1.0) == pytest.approx(4.0 / 3.0)

    def test_always_above_lower_bound(self, rng):
        f = rng.standard_normal(100_000) * 40.0
        lam = rng.uniform(0.01, 50.0, size=100_000)
        # in float64 the strict bound saturates to equality once exp(-f)
        # drops below machine epsilon (f beyond ~37)
        assert np.all(ne_from_f(f, lam) >= 1.0 / lam)
        inside = np.abs(f) <= 30.0
        assert np.all(ne_from_f(f[inside], lam[inside]) > 1.0 / lam[inside])

    def test_numpy_and_scalar_sigmoid_match_scipy(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [-745.2, -1e-300, 0.0, 1e-300, 36.7]])
        # relative 1e-12; below ~1e-308 one side may keep a subnormal the other flushes
        assert np.allclose(sigmoid(x), expit(x), rtol=1e-12, atol=1e-300)
        assert np.allclose(log_sigmoid(x), log_expit(x), rtol=1e-12, atol=0.0)
        scalar = np.array([sigmoid(float(v)) for v in x])
        assert np.allclose(scalar, expit(x), rtol=1e-12, atol=1e-300)
        assert sigmoid(800.0) == 1.0 and sigmoid(-800.0) == 0.0

    def test_split_softplus_matches_logaddexp(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [-745.2, -1e-300, -0.0, 1e-300, 36.7]])
        ref = -np.logaddexp(0.0, -x)
        assert np.allclose(log_sigmoid(x), ref, rtol=1e-15, atol=0.0)
        assert [log_sigmoid(float(v)) for v in x[::997]] == pytest.approx(ref[::997], rel=1e-15, abs=0.0)

    def test_stable_for_extreme_f(self):
        assert np.isfinite(ne_from_f(-700.0, 1.0))
        assert ne_from_f(-50.0, 1.0) == pytest.approx(1.0 + math.exp(50.0))


class TestExactLikelihood:
    def test_two_tip_constant(self):
        d = CoalescentData.isochronous([1.0])
        assert log_coalescent_likelihood(d, ConstantTrajectory(1.0)) == pytest.approx(-1.0)

    def test_hetero_example(self):
        assert log_coalescent_likelihood(HETERO, ConstantTrajectory(1.0)) == pytest.approx(-0.8)

    def test_matches_per_event_product(self, rng):
        # independent oracle: walk each event's span against the cumulative
        # sampling schedule, summing factor-weighted integrals piece by piece
        for _ in range(10):
            d = random_hetero_data(rng)
            traj = ExpGrowthTrajectory(float(rng.uniform(2, 30)), float(rng.uniform(0.2, 2)))
            total = 0.0
            coal = np.concatenate([[0.0], d.coal_times])
            for j in range(len(d.coal_times)):
                lo, hi = coal[j], coal[j + 1]
                cuts = np.concatenate(
                    [[lo], d.samp_times[(d.samp_times > lo) & (d.samp_times < hi)], [hi]]
                )
                for a, b in zip(cuts[:-1], cuts[1:]):
                    mid = 0.5 * (a + b)
                    active = int(d.samp_counts[d.samp_times <= mid].sum()) - int(
                        np.sum(d.coal_times <= mid)
                    )
                    c = active * (active - 1) / 2
                    total -= c * traj.inv_ne_integral(float(a), float(b))
                    if b == hi:
                        total += math.log(c) - math.log(float(traj.ne(hi)))
            assert log_coalescent_likelihood(d, traj) == pytest.approx(total, abs=1e-10)

    def test_time_rescaling_identity(self):
        # scaling times and sizes by c shifts the log likelihood by -(n-1) log c
        d = CoalescentData([0.4, 0.9, 1.7], [0.0], [4])
        c = 2.5
        scaled = CoalescentData(d.coal_times * c, [0.0], [4])
        base = log_coalescent_likelihood(d, ConstantTrajectory(1.3))
        moved = log_coalescent_likelihood(scaled, ConstantTrajectory(1.3 * c))
        assert moved - base == pytest.approx(-3 * math.log(c), abs=1e-9)


def eq14_iso_reference(coal_times, latent_by_interval, f_of, lam):
    """Literal per-event isochronous augmented density (test-side oracle)."""
    times = np.concatenate([[0.0], coal_times])
    total = 0.0
    n = len(coal_times) + 1
    for j in range(len(coal_times)):
        k = n - j
        c = k * (k - 1) / 2
        lat = latent_by_interval[j]
        m = len(lat)
        total += (m + 1) * math.log(c * lam)
        total -= c * lam * (times[j + 1] - times[j])
        total += math.log(expit(f_of(times[j + 1])))
        for x in lat:
            total += math.log(1.0 - expit(f_of(x)))
    return total


class TestAugmentedLikelihood:
    def test_two_tip_no_latent(self):
        grid = build_interval_grid(CoalescentData.isochronous([1.0]))
        field = LatentField([1.0], [0.0], [True])
        assert log_augmented_likelihood(field, grid, 2.0) == pytest.approx(-2.0)

    def test_one_latent_point_factor(self):
        grid = build_interval_grid(CoalescentData.isochronous([1.0]))
        base = log_augmented_likelihood(LatentField([1.0], [0.0], [True]), grid, 2.0)
        with_latent = log_augmented_likelihood(
            LatentField([0.4, 1.0], [0.0, 0.0], [False, True]), grid, 2.0
        )
        # an extra latent point at f=0 multiplies by (C*lam) * (1/2)
        assert with_latent - base == pytest.approx(math.log(2.0 * 1.0) + math.log(0.5))

    def test_missing_coalescent_value_rejected(self):
        grid = build_interval_grid(CoalescentData.isochronous([0.5, 1.0]))
        with pytest.raises(ValidationError, match="coalescent"):
            log_augmented_likelihood(LatentField([1.0], [0.0], [True]), grid, 2.0)

    def test_latent_outside_span_rejected(self):
        grid = build_interval_grid(CoalescentData.isochronous([1.0]))
        field = LatentField([1.0, 1.5], [0.0, 0.0], [True, False])
        with pytest.raises(ValidationError):
            log_augmented_likelihood(field, grid, 2.0)

    def test_latent_point_in_zero_factor_interval_is_impossible(self):
        grid = build_interval_grid(HETERO)  # one lineage on (0.3, 0.5]
        assert grid.coal_factor[1] == 0.0
        empty = LatentField([0.3, 0.7, 1.0], [0.0, 0.0, 0.0], [True, False, True])
        assert math.isfinite(log_augmented_likelihood(empty, grid, 2.0))
        held = LatentField([0.3, 0.4, 1.0], [0.0, 0.0, 0.0], [True, False, True])
        assert log_augmented_likelihood(held, grid, 2.0) == -math.inf

    def test_sign_consistent_field_rises_to_its_f_free_bound(self, rng):
        # the mechanism behind theta's drift toward 0: with f > 0 at every
        # coalescent point and f < 0 at every latent point, scaling f by c
        # lifts every sigmoid factor toward 1, so the likelihood rises toward
        # the f-free bound -lam W + sum over all points of log(lam C), and a
        # small theta (a large f) costs it nothing
        for _ in range(5):
            d = random_hetero_data(rng, max_batches=4)
            grid = build_interval_grid(d)
            live = grid.coal_factor > 0
            lat = np.setdiff1d(rng.uniform(grid.starts[live], grid.ends[live]), grid.coal_event_times)
            times = np.union1d(lat, grid.coal_event_times)
            is_coal = np.isin(times, grid.coal_event_times)
            f = np.where(is_coal, 1.0, -1.0) * rng.uniform(0.05, 2.0, size=len(times))
            lam = float(rng.uniform(0.5, 5.0))
            factors = np.concatenate([grid.coal_factor[grid.ends_with_coal],
                                      grid.coal_factor[np.searchsorted(grid.ends, lat)]])
            bound = -lam * grid.total_hazard_weight + float(np.sum(np.log(lam * factors)))
            vals = np.array([log_augmented_likelihood(LatentField(times, c * f, is_coal), grid, lam)
                             for c in (1, 2, 4, 8, 1e4)])
            assert np.all(np.diff(vals[:-1]) > 0) and np.all(vals < bound + 1e-12)
            assert vals[-1] == pytest.approx(bound, rel=1e-12, abs=1e-12)

    def test_matches_per_point_sum(self, rng):
        # the count-weighted latent term equals the sum over latent points,
        # points on sampling times belonging to the interval they close
        for _ in range(20):
            d = random_hetero_data(rng, max_batches=5)
            grid = build_interval_grid(d)
            live = grid.coal_factor > 0
            lat = rng.uniform(grid.starts[live], grid.ends[live])
            lat = np.concatenate([lat, d.samp_times[1:]])
            lat = lat[grid.coal_factor[np.searchsorted(grid.ends, lat)] > 0]
            times = np.union1d(lat, grid.coal_event_times)
            is_coal = np.isin(times, grid.coal_event_times)
            values = rng.standard_normal(len(times))
            lam = float(rng.uniform(0.5, 5.0))
            expected = -lam * grid.total_hazard_weight
            expected += np.sum(np.log(lam * grid.coal_factor[grid.ends_with_coal]))
            expected += np.sum(log_expit(values[is_coal]))
            for t, f in zip(times[~is_coal], values[~is_coal]):
                expected += math.log(lam * grid.coal_factor[np.searchsorted(grid.ends, t)]) + log_expit(-f)
            field = LatentField(times, values, is_coal)
            assert log_augmented_likelihood(field, grid, lam) == pytest.approx(expected, rel=1e-12)

    def test_isochronous_reduction_is_exact(self, rng):
        # the general interval form evaluated on isochronous data equals the
        # literal per-event formula
        for _ in range(10):
            n = int(rng.integers(2, 8))
            coal = np.sort(rng.uniform(0.05, 3.0, size=n - 1))
            grid = build_interval_grid(CoalescentData.isochronous(coal))
            times = np.concatenate([[0.0], coal])
            latent = [
                np.sort(rng.uniform(times[j], times[j + 1], size=rng.integers(0, 3)))
                for j in range(n - 1)
            ]
            all_t = np.sort(np.concatenate([coal] + latent))
            fvals = dict(zip(all_t, rng.standard_normal(len(all_t))))
            is_coal = np.isin(all_t, coal)
            field = LatentField(all_t, [fvals[t] for t in all_t], is_coal)
            lam = float(rng.uniform(0.5, 5.0))
            expected = eq14_iso_reference(coal, latent, lambda t: fvals[t], lam)
            assert log_augmented_likelihood(field, grid, lam) == pytest.approx(
                expected, abs=1e-10
            )

    @pytest.mark.parametrize("coal_times,n", [([0.8], 2), ([0.35, 1.1], 3)])
    def test_marginalization_recovers_exact_likelihood(self, coal_times, n, rng):
        # integrate the augmented density over latent configurations with the
        # dominating-Poisson proposal; the weight average must equal the exact
        # likelihood under the deterministic f
        lam = 2.2
        f = lambda t: 1.1 * np.sin(3.0 * np.asarray(t)) - 0.4  # noqa: E731

        class SigmoidTrajectory(Trajectory):
            """N_e under the sigmoidal link of the fixed f; its hazard by quadrature."""

            def ne(self, t):
                return (1.0 + np.exp(-f(t))) / lam

            def inv_ne_integral(self, a, b):
                return np.array([
                    integrate.quad(self.inv_ne, x, y, epsabs=1e-10, limit=200)[0] for x, y in zip(a, b)
                ])

        traj = SigmoidTrajectory()
        d = CoalescentData.isochronous(coal_times)
        grid = build_interval_grid(d)
        target = math.exp(log_coalescent_likelihood(d, traj))
        reps = 4000
        weights = np.empty(reps)
        bounds = np.concatenate([[0.0], np.asarray(coal_times)])
        for r in range(reps):
            pts = []
            log_q = 0.0
            for j in range(len(coal_times)):
                c = (n - j) * (n - j - 1) / 2
                length = bounds[j + 1] - bounds[j]
                m = rng.poisson(lam * c * length)
                xs = np.sort(rng.uniform(bounds[j], bounds[j + 1], size=m))
                pts.append(xs)
                log_q += m * math.log(lam * c) - lam * c * length
            lat = np.concatenate(pts) if pts else np.zeros(0)
            all_t = np.sort(np.concatenate([np.asarray(coal_times), lat]))
            field = LatentField(all_t, f(all_t), np.isin(all_t, coal_times))
            weights[r] = math.exp(log_augmented_likelihood(field, grid, lam) - log_q)
        se = weights.std(ddof=1) / math.sqrt(reps)
        assert abs(weights.mean() - target) < 3 * se


class TestLambdaPrior:
    def test_uniform_branch(self):
        prior = LambdaPrior(lam_hat=10.0, eps=0.01)
        assert lambda_log_prior(5.0, prior) == pytest.approx(math.log(0.001))

    def test_boundary_belongs_to_exponential_branch(self):
        prior = LambdaPrior(lam_hat=10.0, eps=0.01)
        assert lambda_log_prior(10.0, prior) == pytest.approx(math.log(0.99 / 10.0))

    def test_nonpositive_is_minus_inf(self):
        prior = LambdaPrior(10.0, 0.01)
        assert lambda_log_prior(0.0, prior) == -math.inf
        assert lambda_log_prior(-1.0, prior) == -math.inf

    def test_normalization(self):
        prior = LambdaPrior(lam_hat=7.0, eps=0.2)
        val, _ = integrate.quad(
            lambda x: math.exp(lambda_log_prior(x, prior)), 0.0, np.inf, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_sampler_matches_density(self, rng):
        prior = LambdaPrior(lam_hat=3.0, eps=0.3)
        draws = np.array([geweke.sample_lambda_prior(prior, rng) for _ in range(20_000)])
        # mass below the best guess
        assert abs(np.mean(draws < prior.lam_hat) - prior.eps) < 0.015
        tail = draws[draws >= prior.lam_hat]
        assert abs(tail.mean() - 2 * prior.lam_hat) < 4 * prior.lam_hat / math.sqrt(len(tail))
