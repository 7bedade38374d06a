"""Grid summaries and the four evaluation metrics."""

import io

import numpy as np
import pytest

from coalgp.errors import EvaluationError
from coalgp.genealogy import CoalescentData
from coalgp.gp_prior import BrownianMotionKernel, LatentField
from coalgp.likelihood import ne_from_f
from coalgp.mcmc import ChainDraw, ChainOutput, McmcConfig, run_chain
from coalgp.summarize import (
    _type7_quantiles,
    default_grid,
    envelope,
    metric_report,
    mrw,
    sre,
    summarize,
    variation,
)


def synthetic_chain(draws):
    cfg = McmcConfig(iterations=10, burn_in=0)
    return ChainOutput(
        draws=draws,
        acceptance={},
        config=cfg,
        kernel=BrownianMotionKernel(init_var=1.0),
    )


def make_draw(iteration, times, values, is_coal, theta=1.0, lam=2.0):
    return ChainDraw(
        iteration=iteration,
        theta=theta,
        lam=lam,
        field=LatentField(times, values, is_coal),
        log_posterior=0.0,
    )


class TestMetrics:
    def test_sre_examples(self):
        truth = np.ones(150)
        assert sre(truth, truth) == 0.0
        assert sre(2 * truth, truth) == pytest.approx(150.0, abs=1e-12)
        t10 = np.linspace(1.0, 2.0, 10)
        assert sre(t10 * 1.1, t10) == pytest.approx(1.0, abs=1e-12)

    def test_mrw_examples(self):
        truth = np.ones(4)
        assert mrw(truth, truth, truth) == 0.0
        assert mrw(truth, 2 * truth, truth) == pytest.approx(1.0, abs=1e-12)
        assert mrw([0.0, 0.0], [1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_envelope_examples(self):
        truth = np.ones(150)
        assert envelope(truth - 0.5, truth + 0.5, truth) == 1.0
        assert envelope(truth + 0.5, truth + 1.0, truth) == 0.0
        half = np.concatenate([np.full(75, 0.5), np.full(75, 2.0)])
        assert envelope(half, half + 1.0, truth) == pytest.approx(0.5, abs=1e-12)

    def test_variation_examples(self):
        assert variation(np.ones(10)) == 0.0
        assert variation([1.0, 3.0, 2.0]) == pytest.approx(3.0, abs=1e-12)
        mono = np.linspace(0.3, 4.0, 20)
        assert variation(mono) == pytest.approx(abs(mono[-1] - mono[0]), abs=1e-12)

    def test_against_independent_reimplementation(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 40))
            est = rng.uniform(0.1, 5.0, size=k)
            lo = est * rng.uniform(0.5, 1.0, size=k)
            hi = est * rng.uniform(1.0, 2.0, size=k)
            truth = rng.uniform(0.1, 5.0, size=k)
            sre_ref = sum(abs(e - t) / t for e, t in zip(est, truth))
            mrw_ref = sum((h - l) / t for h, l, t in zip(hi, lo, truth)) / k
            env_ref = sum(1 for l, h, t in zip(lo, hi, truth) if l <= t <= h) / k
            var_ref = sum(abs(b - a) for a, b in zip(est[:-1], est[1:]))
            assert abs(sre(est, truth) - sre_ref) < 1e-12 * max(1, sre_ref)
            assert abs(mrw(lo, hi, truth) - mrw_ref) < 1e-12
            assert abs(envelope(lo, hi, truth) - env_ref) < 1e-12
            assert abs(variation(est) - var_ref) < 1e-12 * max(1, var_ref)

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            sre([1.0, 2.0], [1.0])
        with pytest.raises(Exception):
            variation([1.0])


class TestSummarize:
    def test_single_draw_degenerate_band(self, rng):
        draw = make_draw(0, [0.5, 1.0], [0.2, -0.1], [True, True], lam=2.0)
        chain = synthetic_chain([draw])
        out = summarize(chain, np.array([0.5, 1.0]), rng)
        expected = ne_from_f(np.array([0.2, -0.1]), 2.0)
        assert np.allclose(out.median, expected)
        assert np.allclose(out.lo95, expected)
        assert np.allclose(out.hi95, expected)

    def test_grid_on_field_times_is_deterministic(self, rng):
        draws = [
            make_draw(i, [0.5, 1.0], [0.3 * i, -0.2], [True, True], lam=1.5)
            for i in range(6)
        ]
        chain = synthetic_chain(draws)
        out = summarize(chain, np.array([0.5, 1.0]), rng)
        nes = np.array([ne_from_f(np.array([0.3 * i, -0.2]), 1.5) for i in range(6)])
        assert np.allclose(out.median, np.quantile(nes, 0.5, axis=0))

    def test_bands_match_numpy_quantile_bitwise(self, rng):
        # the sort-based bands are np.quantile's default, last bits included
        big, q = np.finfo(float).max, np.array([0.025, 0.5, 0.975])
        for n in (1, 2, 3, 39, 40, 41, 1000):
            for x in (
                rng.exponential(size=(n, 4)),
                rng.integers(0, 3, size=(n, 4)).astype(float),  # ties
                rng.choice([big, 1.0, 1e300, 1e-300], size=(n, 4)),
            ):
                assert _type7_quantiles(x, q).tobytes() == np.quantile(x, q, axis=0).tobytes()

    def test_constant_truth_chain(self, rng):
        # every draw has f = 0 and lam = 2: N_e is exactly 1 with no spread
        draws = [make_draw(i, [0.4, 1.0], [0.0, 0.0], [True, True], lam=2.0) for i in range(8)]
        out = summarize(synthetic_chain(draws), np.array([0.4, 1.0]), rng)
        assert np.allclose(out.median, 1.0)
        assert np.allclose(out.hi95 - out.lo95, 0.0)

    def test_permutation_invariance(self, rng):
        data = CoalescentData.isochronous(np.sort(rng.uniform(0.1, 2.0, size=4)))
        cfg = McmcConfig(iterations=200, burn_in=50, thin=5, seed=3, lambda_hat=3.0)
        chain = run_chain(data, cfg, BrownianMotionKernel(init_var=1.0))
        grid = np.linspace(0.0, data.tmrca, 20)
        a = summarize(chain, grid, np.random.default_rng(77))
        shuffled = synthetic_chain(list(reversed(chain.draws)))
        shuffled = ChainOutput(
            draws=list(reversed(chain.draws)),
            acceptance={},
            config=chain.config,
            kernel=chain.kernel,
        )
        b = summarize(shuffled, grid, np.random.default_rng(77))
        assert np.array_equal(a.median, b.median)
        assert np.array_equal(a.lo95, b.lo95)

    def test_extrapolation_warns_and_flags(self, rng):
        draw = make_draw(0, [0.5, 1.0], [0.0, 0.0], [True, True])
        chain = synthetic_chain([draw])
        with pytest.warns(UserWarning, match="beyond the root"):
            out = summarize(chain, np.array([0.5, 1.5]), rng)
        assert list(out.extrapolated) == [False, True]

    def test_empty_chain_rejected(self, rng):
        with pytest.raises(EvaluationError):
            summarize(synthetic_chain([]), np.array([0.5]), rng)

    def test_default_grid(self):
        draw = make_draw(0, [0.5, 2.0], [0.0, 0.0], [True, True])
        grid = default_grid(synthetic_chain([draw]), 150)
        assert len(grid) == 150
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(2.0)

    def test_csv_output(self, rng):
        draw = make_draw(0, [0.5, 1.0], [0.0, 0.0], [True, True])
        out = summarize(synthetic_chain([draw]), np.array([0.25, 0.75]), rng)
        buf = io.StringIO()
        out.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "time,median,lo95,hi95,extrapolated"
        assert len(lines) == 3


class TestMetricReport:
    def test_report_composition(self, rng):
        draw = make_draw(0, [0.5, 1.0], [0.0, 0.0], [True, True], lam=2.0)
        out = summarize(synthetic_chain([draw]), np.array([0.5, 1.0]), rng)
        report = metric_report(out, np.ones(2))
        assert report.sre == pytest.approx(0.0, abs=1e-12)
        assert report.envelope == 1.0
        assert report.grid_size == 2
        assert "sre" in report.to_json()
