"""Transition kernels: closed-form acceptance ratios, conjugate checks,
prior recovery, determinism, and a joint-distribution smoke test."""

import base64
import json
import math

import numpy as np
import pytest
from coalgp.errors import McmcError, ValidationError
from coalgp.genealogy import CoalescentData, build_interval_grid
from coalgp.gp_prior import (
    BrownianMotionKernel,
    LatentField,
    OrnsteinUhlenbeckKernel,
    build_precision,
)
from coalgp.likelihood import LambdaPrior, lambda_log_prior, log_augmented_likelihood
from coalgp.mcmc import (
    ChainDraw,
    ChainState,
    McmcConfig,
    elliptical_slice_step,
    gamma_log_pdf,
    gibbs_theta,
    lambda_log_ratio,
    location_update,
    mcmc_sweep,
    rj_log_accept_add,
    rj_log_accept_remove,
    rj_update,
    run_chain,
    theta_full_conditional,
)
from coalgp.simulate import simulate_time_transform
from coalgp.trajectories import ConstantTrajectory
import geweke
from conftest import dense_covariance, random_hetero_data
from prior_chain import run_prior_chain


KERNELS = [BrownianMotionKernel(init_var=1.0), OrnsteinUhlenbeckKernel(phi=0.8)]


def small_data():
    return CoalescentData([0.4, 0.7, 1.3], [0.0], [4])


def serial_data():
    # the first coalescent event follows three sampling events, so its block
    # holds four intervals; the last batch arrives after one lineage is left
    return CoalescentData([0.35, 0.5, 0.8, 0.9, 1.6], [0.0, 0.1, 0.2, 0.3, 1.0], [2, 1, 1, 1, 1])


class TestReversibleJumpRatios:
    def test_direct_substitution(self):
        # l=1, lam=2, C=1, m=0, f*=0 gives acceptance exactly 1
        assert math.exp(rj_log_accept_add(1.0, 2.0, 1.0, 0, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_add_remove_inverse_identity(self, rng):
        for _ in range(10_000):
            length = rng.uniform(0.01, 5.0)
            lam = rng.uniform(0.05, 20.0)
            c = float(rng.integers(1, 50))
            m = int(rng.integers(0, 30))
            f = rng.standard_normal() * 5.0
            total = rj_log_accept_add(length, lam, c, m, f) + rj_log_accept_remove(
                length, lam, c, m + 1, f
            )
            assert abs(math.exp(total) - 1.0) <= 1e-12

    def test_zero_factor_never_adds(self):
        assert rj_log_accept_add(1.0, 2.0, 0.0, 0, 0.0) == -math.inf

    def test_rj_update_bookkeeping(self, rng):
        data = small_data()
        grid = build_interval_grid(data)
        cfg = McmcConfig(iterations=10, burn_in=0, lambda_hat=3.0)
        kernel = BrownianMotionKernel(init_var=1.0)
        state = ChainState.initial(grid, kernel, cfg)
        for _ in range(200):
            rj_update(state, grid, kernel, rng)
        _, count = grid.latent_slices(state.field.times)
        assert count.sum() == int(np.sum(~state.field.is_coal))
        latent = state.field.times[~state.field.is_coal]
        recounted = np.bincount(np.searchsorted(grid.ends, latent), minlength=grid.n_intervals)
        assert np.array_equal(recounted, count)


    def test_rj_update_bookkeeping_serial_blocks(self, rng):
        data = serial_data()
        grid = build_interval_grid(data)
        assert np.max(np.bincount(grid.event_index)) >= 3
        cfg = McmcConfig(iterations=10, burn_in=0, lambda_hat=3.0)
        kernel = OrnsteinUhlenbeckKernel(phi=0.7)
        state = ChainState.initial(grid, kernel, cfg)
        for _ in range(200):
            rj_update(state, grid, kernel, rng)
        _, count = grid.latent_slices(state.field.times)
        assert count.sum() == int(np.sum(~state.field.is_coal))
        assert np.all(np.diff(state.field.times) > 0)
        assert np.array_equal(state.field.coal_times(), grid.coal_event_times)
        latent = state.field.times[~state.field.is_coal]
        recounted = np.bincount(np.searchsorted(grid.ends, latent), minlength=grid.n_intervals)
        assert np.array_equal(recounted, count)
        assert recounted[grid.coal_factor == 0].sum() == 0


class TestRjPassSchedule:
    def check_schedule(self, grid):
        passes = grid.rj_passes
        live = np.flatnonzero((grid.coal_factor > 0) & (grid.lengths > 0))
        flat = np.concatenate(passes) if passes else np.zeros(0, dtype=int)
        # every live interval sits in exactly one pass
        assert np.array_equal(np.sort(flat), live)
        pass_of = np.full(grid.n_intervals, -1)
        for k, js in enumerate(passes):
            # no pass holds two intervals of one block
            assert len(np.unique(grid.event_index[js])) == len(js)
            pass_of[js] = k
        # within a block the passes go in time order
        for b in np.unique(grid.event_index[live]):
            in_block = live[grid.event_index[live] == b]
            assert np.array_equal(pass_of[in_block], np.arange(len(in_block)))

    def test_isochronous_is_one_pass(self):
        grid = build_interval_grid(small_data())
        assert len(grid.rj_passes) == 1
        self.check_schedule(grid)

    def test_serial_blocks(self):
        grid = build_interval_grid(serial_data())
        assert len(grid.rj_passes) == 4
        self.check_schedule(grid)

    def test_random_heterochronous(self, rng):
        for _ in range(50):
            self.check_schedule(build_interval_grid(random_hetero_data(rng, max_batches=6)))


class TestLocationUpdate:
    def test_equal_values_always_accept(self):
        # acceptance (1+e^f)/(1+e^{f*}) is 1 when f = f*
        assert math.exp(0.0 - 0.0) == 1.0

    def test_substitution_example(self):
        # f(t)=0, f(t*)=ln 3: acceptance (1+1)/(1+3) = 1/2
        log_a = float(np.logaddexp(0.0, 0.0) - np.logaddexp(0.0, math.log(3.0)))
        assert math.exp(log_a) == pytest.approx(0.5, abs=1e-15)

    def test_no_latent_is_noop(self, rng):
        data = small_data()
        grid = build_interval_grid(data)
        cfg = McmcConfig(iterations=10, burn_in=0)
        kernel = BrownianMotionKernel()
        state = ChainState.initial(grid, kernel, cfg)
        before = state.field.times.copy()
        location_update(state, grid, kernel, rng)
        assert np.array_equal(state.field.times, before)

    def test_moves_stay_in_interval(self, rng):
        data = small_data()
        grid = build_interval_grid(data)
        cfg = McmcConfig(iterations=10, burn_in=0, lambda_hat=4.0)
        kernel = BrownianMotionKernel(init_var=1.0)
        state = ChainState.initial(grid, kernel, cfg)
        for _ in range(100):
            rj_update(state, grid, kernel, rng)
            _, count = grid.latent_slices(state.field.times)
            location_update(state, grid, kernel, rng)
            # a relocation keeps every interval's count
            assert np.array_equal(grid.latent_slices(state.field.times)[1], count)
        latent = state.field.times[~state.field.is_coal]
        recounted = np.bincount(np.searchsorted(grid.ends, latent), minlength=grid.n_intervals)
        assert np.array_equal(recounted, count)


class TestEllipticalSlice:
    def test_prior_recovery_when_likelihood_constant(self, rng):
        # with a flat likelihood the chain must keep the prior law of f
        kernel = BrownianMotionKernel(theta=2.0, init_var=1.5)
        times = np.array([0.5, 1.0, 2.0])
        prec = build_precision(times, kernel)
        f = prec.sample_zero_mean(rng)
        n = 10_000
        out = np.empty((n, 3))
        for i in range(n):
            nu = prec.sample_zero_mean(rng)
            f = elliptical_slice_step(f, nu, lambda v: 0.0, rng)
            out[i] = f
        cov = dense_covariance(kernel, times)
        se = np.sqrt(np.diag(cov) / n) * 4
        assert np.all(np.abs(out.mean(axis=0)) < 3 * se)  # autocorrelated: inflated allowance
        assert np.allclose(out.var(axis=0, ddof=1), np.diag(cov), rtol=0.12)

    def test_gaussian_pseudo_likelihood_is_conjugate(self, rng):
        # prior f ~ N(0, 1/theta) at one point, likelihood N(y | f, s2):
        # posterior mean y*v/(v+s2), variance v*s2/(v+s2)
        theta, s2, y = 1.7, 0.4, 0.9
        kernel = BrownianMotionKernel(theta=theta, init_var=0.0)
        times = np.array([1.0])
        prec = build_precision(times, kernel)
        v = 1.0 / theta
        loglik = lambda f: float(-0.5 * (f[0] - y) ** 2 / s2)  # noqa: E731
        f = np.zeros(1)
        n = 20_000
        draws = np.empty(n)
        for i in range(n):
            f = elliptical_slice_step(f, prec.sample_zero_mean(rng), loglik, rng)
            draws[i] = f[0]
        post_mean = y * v / (v + s2)
        post_var = v * s2 / (v + s2)
        assert abs(draws.mean() - post_mean) < 4 * math.sqrt(post_var / n) * 3
        assert draws.var(ddof=1) == pytest.approx(post_var, rel=0.1)


class TestGibbsTheta:
    def test_zero_field_values(self):
        grid = build_interval_grid(small_data())
        cfg = McmcConfig(iterations=10, burn_in=0)
        state = ChainState.initial(grid, BrownianMotionKernel(), cfg)
        extra = LatentField(
            np.append(state.field.times, 2.0), np.zeros(4), np.append(state.field.is_coal, False)
        )
        shape, rate = theta_full_conditional(extra, BrownianMotionKernel().structure_tridiag(extra.times), 0.001, 0.001)
        assert shape == pytest.approx(2.001)
        assert rate == pytest.approx(0.001)

    def test_single_point_quadratic_form(self):
        field = LatentField([1.0], [2.0], [True])
        kernel = BrownianMotionKernel(theta=1.0, init_var=0.0)  # structure matrix [1]
        shape, rate = theta_full_conditional(field, kernel.structure_tridiag(field.times), 0.5, 0.25)
        assert shape == pytest.approx(1.0)
        assert rate == pytest.approx(0.25 + 2.0)

    def test_draw_changes_theta(self, rng):
        grid = build_interval_grid(small_data())
        cfg = McmcConfig(iterations=10, burn_in=0)
        kernel = BrownianMotionKernel(init_var=1.0)
        state = ChainState.initial(grid, kernel, cfg)
        gibbs_theta(state, kernel.structure_tridiag(state.field.times), 2.0, 2.0, rng)
        assert state.theta > 0

    def test_infinite_draw_raises(self, rng):
        grid = build_interval_grid(small_data())
        kernel = BrownianMotionKernel(init_var=1.0)
        state = ChainState.initial(grid, kernel, McmcConfig(iterations=10, burn_in=0))
        with pytest.raises(McmcError, match="not finite"):
            gibbs_theta(state, kernel.structure_tridiag(state.field.times), 1e308, 1e-300, rng)
        assert state.theta == kernel.theta


def test_gamma_log_pdf_matches_scipy():
    from scipy.special import gammaln
    from scipy.stats import gamma

    a = np.geomspace(1e-4, 1e4, 200)
    assert np.allclose([math.lgamma(v) for v in a], gammaln(a), rtol=1e-12, atol=1e-12)
    for alpha, beta in [(0.001, 0.001), (0.5, 2.0), (3.7, 0.2), (250.0, 40.0)]:
        x = np.geomspace(1e-6, 1e3, 50)
        ours = np.array([gamma_log_pdf(float(v), alpha, beta) for v in x])
        assert np.allclose(ours, gamma.logpdf(x, alpha, scale=1.0 / beta), rtol=1e-12, atol=1e-12)
    assert gamma_log_pdf(0.0, 1.0, 1.0) == -math.inf


class TestMhLambda:
    def test_identical_proposal_accepts(self):
        prior = LambdaPrior(10.0, 0.01)
        assert lambda_log_ratio(3.0, 3.0, 17, 4.2, prior) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_exponent_reduces_to_prior_ratio(self):
        prior = LambdaPrior(10.0, 0.01)
        # zero points and zero hazard: ratio is the prior ratio (flat below
        # lam_hat, so exactly 0 in the log)
        assert lambda_log_ratio(2.0, 4.0, 0, 0.0, prior) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "bad, message",
        [({"lambda_eps": 1.5}, "eps must lie"), ({"lambda_eps": 0.0}, "eps must lie"),
         ({"lambda_hat": 0.0}, "lam_hat must be positive")],
        ids=["eps-above-1", "eps-0", "lambda-hat-0"],
    )
    def test_config_checks_the_prior_at_construction(self, bad, message):
        # the config builds its LambdaPrior, whose own check rejects the value
        with pytest.raises(ValidationError, match=message):
            McmcConfig(iterations=10, burn_in=0, **bad)

    def test_chain_never_leaves_support(self, rng):
        data = small_data()
        cfg = McmcConfig(iterations=800, burn_in=0, thin=1, seed=3, lambda_hat=2.0)
        out = run_chain(data, cfg, BrownianMotionKernel(init_var=1.0))
        lams = np.array([d.lam for d in out.draws])
        thetas = np.array([d.theta for d in out.draws])
        assert np.all(lams > 0)
        assert np.all(thetas > 0)


class TestPriorRecovery:
    def test_prior_chain_matches_diffuse_priors(self):
        # the production-default Gamma(0.001, 0.001) lives far below float
        # range; the prior chain carries log(theta) and must match its
        # log-moments
        from scipy.special import polygamma, psi

        cfg = McmcConfig(
            iterations=20_000, burn_in=0, thin=2, seed=7,
            theta_alpha=0.001, theta_beta=0.001, lambda_hat=10.0, lambda_eps=0.01,
            lambda_halfwidth=5.0,
        )
        out = run_prior_chain(cfg, BrownianMotionKernel(init_var=1.0))
        lt = out["log_theta"]
        mean_expected = psi(0.001) - math.log(0.001)
        var_expected = float(polygamma(1, 0.001))
        assert abs(lt.mean() - mean_expected) < 4 * geweke.batch_se(lt)
        se_sq = geweke.batch_se((lt - mean_expected) ** 2)
        assert abs(np.mean((lt - mean_expected) ** 2) - var_expected) < 4 * se_sq

    def test_prior_chain_with_field_block_moderate_priors(self):
        # the whitened theta <-> f alternation at hyperpriors it can traverse
        cfg = McmcConfig(
            iterations=30_000, burn_in=2000, thin=2, seed=13,
            theta_alpha=2.0, theta_beta=2.0, lambda_hat=2.0, lambda_eps=0.3,
            lambda_halfwidth=1.0,
        )
        out = run_prior_chain(cfg, BrownianMotionKernel(init_var=1.0), times=[0.3, 0.8, 1.4])
        lt = out["log_theta"]
        from scipy.special import polygamma, psi

        assert abs(lt.mean() - (psi(2.0) - math.log(2.0))) < 4 * geweke.batch_se(lt)
        assert abs(lt.var(ddof=1) - float(polygamma(1, 2.0))) < 0.1
        # lambda moves through the production kernel with zero hazard weight
        lams = out["lambda"]
        prior_mean = 0.3 * 1.0 + 0.7 * (2.0 + 2.0)  # eps*lam_hat/2 + (1-eps)*2*lam_hat
        assert abs(lams.mean() - prior_mean) < 4 * geweke.batch_se(lams)


class TestRunChain:
    def test_seed_determinism(self):
        data = small_data()
        cfg = McmcConfig(iterations=300, burn_in=50, thin=5, seed=42, lambda_hat=3.0)
        kernel = OrnsteinUhlenbeckKernel(phi=0.8)
        a = run_chain(data, cfg, kernel)
        b = run_chain(data, cfg, kernel)
        assert len(a.draws) == len(b.draws)
        for da, db in zip(a.draws, b.draws):
            assert da.theta == db.theta and da.lam == db.lam
            assert np.array_equal(da.field.times, db.field.times)
            assert np.array_equal(da.field.values, db.field.values)
            assert da.log_posterior == db.log_posterior

    def test_acceptance_rates_in_unit_interval(self):
        data = small_data()
        cfg = McmcConfig(iterations=400, burn_in=100, seed=1, lambda_hat=3.0)
        out = run_chain(data, cfg, BrownianMotionKernel(init_var=1.0))
        for rate in out.acceptance.values():
            assert 0.0 <= rate <= 1.0
        assert all(math.isfinite(d.log_posterior) for d in out.draws)

    @pytest.mark.parametrize("kernel", KERNELS, ids=["bm", "ou"])
    def test_sweep_tally(self, rng, kernel):
        grid = build_interval_grid(serial_data())
        cfg = McmcConfig(iterations=10, burn_in=0, lambda_hat=3.0)
        state = ChainState.initial(grid, kernel, cfg)
        n = 60
        for _ in range(n):
            mcmc_sweep(state, grid, kernel, cfg, rng)
        counts = state.counts
        assert counts["lambda"][1] == n
        assert counts["ess"] == [n, n]
        rj_attempts = counts["rj_add"][1] + counts["rj_remove"][1]
        assert rj_attempts == n * sum(len(p) for p in grid.rj_passes)
        assert 0 < counts["location"][1] <= n
        assert all(0 <= acc <= att for acc, att in counts.values())

    def test_hetero_single_batch_matches_iso_bitwise(self, rng):
        # acceptance-style reduction at unit-test scale
        for seed in range(3):
            coal = np.sort(rng.uniform(0.1, 2.0, size=4))
            iso = CoalescentData.isochronous(coal)
            hetero = CoalescentData(coal, np.array([0.0]), np.array([5]))
            cfg = McmcConfig(iterations=150, burn_in=20, thin=2, seed=seed, lambda_hat=3.0)
            kernel = BrownianMotionKernel(init_var=1.0)
            a, b = run_chain(iso, cfg, kernel), run_chain(hetero, cfg, kernel)
            for da, db in zip(a.draws, b.draws):
                assert da.theta == db.theta and da.lam == db.lam
                assert np.array_equal(da.field.values, db.field.values)

    @pytest.mark.parametrize("data", [small_data(), serial_data()], ids=["iso", "serial"])
    @pytest.mark.parametrize("kernel", KERNELS, ids=["bm", "ou"])
    def test_one_prior_build_per_iteration(self, monkeypatch, data, kernel):
        # the field's times are fixed after relocation, so one theta-free
        # prior serves the slice step, the theta draw and the log posterior
        calls = []
        build = type(kernel).structure_tridiag
        monkeypatch.setattr(type(kernel), "structure_tridiag", lambda k, t: calls.append(1) or build(k, t))
        run_chain(data, McmcConfig(iterations=60, burn_in=10, seed=3, lambda_hat=3.0), kernel)
        assert len(calls) == 60

    @pytest.mark.parametrize("kernel", KERNELS, ids=["bm", "ou"])
    def test_draw_log_posterior_is_sum_of_terms(self, kernel):
        data = serial_data()
        cfg = McmcConfig(iterations=200, burn_in=20, thin=3, seed=4, lambda_hat=3.0)
        grid = build_interval_grid(data)
        for d in run_chain(data, cfg, kernel).draws:
            assert d.log_posterior == (
                build_precision(d.field.times, kernel.with_theta(d.theta)).log_density(d.field.values)
                + gamma_log_pdf(d.theta, cfg.theta_alpha, cfg.theta_beta)
                + lambda_log_prior(d.lam, cfg.lambda_prior)
                + log_augmented_likelihood(d.field, grid, d.lam)
            )

    def test_default_kernel_on_coalescences_1e15_apart(self):
        # BM's innovation takes the gap in t: shifted times t + init_var
        # would round this gap to 0
        data = CoalescentData([1e-9, 1e-9 + 1e-15, 0.5, 1.0], [0.0], [5])
        cfg = McmcConfig(iterations=300, burn_in=100, thin=5, seed=2)
        out = run_chain(data, cfg, BrownianMotionKernel())
        assert len(out.draws) == 40
        for d in out.draws:
            assert math.isfinite(d.log_posterior) and np.all(np.isfinite(d.field.values))

    def test_jsonl_round_trip(self, tmp_path):
        data = small_data()
        cfg = McmcConfig(iterations=100, burn_in=10, thin=3, seed=9)
        out = run_chain(data, cfg, BrownianMotionKernel(init_var=2.0))
        path = tmp_path / "chain.jsonl"
        with open(path, "w") as fh:
            out.write_jsonl(fh)
        from coalgp.mcmc import ChainOutput

        with open(path) as fh:
            back = ChainOutput.read_jsonl(fh)
        assert len(back.draws) == len(out.draws)
        assert back.kernel == out.kernel
        assert back.draws[-1].theta == out.draws[-1].theta
        assert np.array_equal(back.draws[-1].field.values, out.draws[-1].field.values)


def edge_draw():
    return ChainDraw(
        iteration=7,
        theta=0.3,
        lam=2.5,
        field=LatentField([5e-324, 0.25, 1.0, 1e308], [-0.0, 5e-324, 1e308, -1e308], [False, True, False, True]),
        log_posterior=-12.5,
    )


def decimal_record(draw):
    """The draw's record in the decimal-list layout chain files had before."""
    return {**draw.to_json(), "times": draw.field.times.tolist(), "values": draw.field.values.tolist(),
            "is_coal": draw.field.is_coal.astype(int).tolist()}


class TestChainDrawRecord:
    def test_base64_round_trip_is_bit_exact(self):
        draw = edge_draw()
        obj = json.loads(json.dumps(draw.to_json()))
        assert all(isinstance(obj[k], str) for k in ("times", "values", "is_coal"))
        back = ChainDraw.from_json(obj)
        for key in ("times", "values"):
            assert getattr(back.field, key).tobytes() == getattr(draw.field, key).tobytes()
        assert back.field.is_coal.dtype == bool and np.array_equal(back.field.is_coal, draw.field.is_coal)
        assert (back.iteration, back.theta, back.lam, back.log_posterior) == (7, 0.3, 2.5, -12.5)

    def test_documented_numpy_decode(self):
        obj = edge_draw().to_json()
        values = np.frombuffer(base64.b64decode(obj["values"]), dtype="<f8")
        is_coal = np.frombuffer(base64.b64decode(obj["is_coal"]), dtype="u1").astype(bool)
        assert values.tobytes() == edge_draw().field.values.tobytes()
        assert np.array_equal(is_coal, edge_draw().field.is_coal)

    def test_decimal_lists_still_read_bit_exact(self):
        draw = edge_draw()
        back = ChainDraw.from_json(json.loads(json.dumps(decimal_record(draw))))
        for key in ("times", "values"):
            assert getattr(back.field, key).tobytes() == getattr(draw.field, key).tobytes()
        assert back.field.is_coal.dtype == bool and np.array_equal(back.field.is_coal, draw.field.is_coal)

    @pytest.mark.parametrize(
        "key, value",
        [("times", "AAAA!AAA"), ("times", "AAAAAAA"), ("values", "AAAA\u00e9AAA"),
         ("values", base64.b64encode(b"\0" * 31).decode()),
         ("times", base64.b64encode(b"\0" * 12).decode()), ("is_coal", base64.b64encode(b"\1\2\0\1").decode())],
        ids=["bad-char", "bad-padding", "non-ascii", "values-31-bytes", "times-12-bytes", "is-coal-byte-2"],
    )
    def test_malformed_base64_raises(self, key, value):
        obj = {**edge_draw().to_json(), key: value}
        with pytest.raises(ValidationError, match=repr(key)):
            ChainDraw.from_json(obj)

    def test_draw_without_coalescent_point_raises(self):
        obj = {**edge_draw().to_json(), "times": "", "values": "", "is_coal": ""}
        with pytest.raises(ValidationError, match="no coalescent point"):
            ChainDraw.from_json(obj)

    def test_decimal_is_coal_outside_0_1_raises(self):
        obj = {**decimal_record(edge_draw()), "is_coal": [0, 2, 0, 1]}
        with pytest.raises(ValidationError, match="is_coal"):
            ChainDraw.from_json(obj)


class TestPosteriorSelfConsistency:
    def test_two_tip_constant_truth_toy(self):
        # a pair simulated under N_e = 1: the posterior band must bracket both
        # its own median and the truth everywhere on the grid
        from coalgp.summarize import envelope, summarize

        rng = np.random.Generator(np.random.Philox(5))
        coal = simulate_time_transform(ConstantTrajectory(1.0), rng, [0.0], [2], 1)[0]
        data = CoalescentData.isochronous(coal)
        cfg = McmcConfig(iterations=50_000, burn_in=10_000, thin=10, seed=8, lambda_hat=5.0)
        chain = run_chain(data, cfg, BrownianMotionKernel(init_var=10.0))
        grid = np.linspace(0.0, data.tmrca, 30)
        summ = summarize(chain, grid, np.random.default_rng(1))
        assert np.all(summ.lo95 <= summ.median) and np.all(summ.median <= summ.hi95)
        assert envelope(summ.lo95, summ.hi95, np.ones(30)) >= 0.95


class TestGewekeHetero:
    def test_joint_distribution_agreement(self):
        # serial sampling exercises the epoch boundary handling of both the
        # simulator and the interval bookkeeping
        rng = np.random.default_rng(2024)
        cfg = geweke.default_config()
        kernel = BrownianMotionKernel(init_var=geweke.INIT_VAR)
        st, sc = [0.0, 0.4], [3, 2]
        mc = geweke.marginal_conditional(st, sc, kernel, cfg, 4000, rng)
        sc_ = geweke.successive_conditional(st, sc, kernel, cfg, 4000, rng, extra_lambda_steps=3)
        scores = geweke.moment_z_scores(mc, sc_)
        assert all(abs(z) < 4.5 for z in scores.values()), scores

    @pytest.mark.slow
    def test_serial_blocks_joint_distribution_agreement(self):
        # three sampling times put several intervals in the early blocks, so
        # the RJ sweep takes more than one pass
        rng = np.random.Generator(np.random.Philox(404))
        cfg = geweke.default_config(lambda_hat=3.0, lambda_halfwidth=3.0)
        kernel = BrownianMotionKernel(init_var=geweke.INIT_VAR)
        st, sc = [0.0, 0.15, 0.3], [3, 2, 2]
        mc = geweke.marginal_conditional(st, sc, kernel, cfg, 20_000, rng)
        sc_ = geweke.successive_conditional(st, sc, kernel, cfg, 90_000, rng, extra_lambda_steps=5)
        scores = geweke.moment_z_scores(mc, sc_)
        assert all(abs(z) < 4.0 for z in scores.values()), scores
