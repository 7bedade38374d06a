"""Innovations-form precision, densities, and conditional draws against
dense Gaussian oracles."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from coalgp.errors import EvaluationError
from coalgp.gp_prior import (
    _CHUNK_DECAY,
    BrownianMotionKernel,
    LatentField,
    OrnsteinUhlenbeckKernel,
    build_precision,
    conditional_draw_at,
    kernel_from_json,
    kernel_to_json,
    predictive_grid_draw,
)
from conftest import dense_covariance


def random_kernel(rng, kind=None):
    kind = kind or rng.choice(["bm", "ou"])
    theta = float(rng.uniform(0.3, 3.0))
    if kind == "bm":
        return BrownianMotionKernel(theta=theta, init_var=float(rng.uniform(0.1, 5.0)))
    return OrnsteinUhlenbeckKernel(theta=theta, phi=float(rng.uniform(0.3, 2.0)))


def dense_conditional(cov, known_idx, new_idx, known_vals):
    """Gaussian conditioning with dense linear algebra (the oracle)."""
    s11 = cov[np.ix_(new_idx, new_idx)]
    s12 = cov[np.ix_(new_idx, known_idx)]
    s22 = cov[np.ix_(known_idx, known_idx)]
    sol = np.linalg.solve(s22, s12.T)
    mean = sol.T @ np.zeros(len(known_idx)) + s12 @ np.linalg.solve(s22, known_vals)
    var = s11 - s12 @ sol
    return np.atleast_1d(mean), np.atleast_2d(var)


class TestPrecision:
    def test_bm_pinned_three_point_example(self):
        # covariance [[1,1,1],[1,2,2],[1,2,3]] inverts to [[2,-1,0],[-1,2,-1],[0,-1,1]]
        k = BrownianMotionKernel(theta=1.0, init_var=0.0)
        q = build_precision([1.0, 2.0, 3.0], k)
        assert np.allclose(q.dense(), [[2, -1, 0], [-1, 2, -1], [0, -1, 1]], atol=1e-12)

    def test_bm_single_point(self):
        q = build_precision([1.0], BrownianMotionKernel(theta=2.0, init_var=0.0))
        assert np.allclose(q.dense(), [[2.0]])

    def test_precision_times_covariance_is_identity(self, rng):
        for _ in range(5):
            kernel = random_kernel(rng)
            times = np.sort(rng.uniform(0.0, 4.0, size=rng.integers(2, 8)))
            times += np.arange(len(times)) * 1e-3  # guard against near-ties
            q = build_precision(times, kernel)
            cov = dense_covariance(kernel, times)
            assert np.allclose(q.dense() @ cov, np.eye(len(times)), atol=1e-10)

    def test_duplicate_times_rejected(self):
        with pytest.raises(EvaluationError):
            build_precision([1.0, 1.0], BrownianMotionKernel())

    @pytest.mark.parametrize("kind", ["bm", "ou"])
    def test_innovations_density_matches_dense(self, kind, rng):
        for _ in range(4):
            kernel = random_kernel(rng, kind)
            times = np.sort(rng.uniform(0.0 if kind == "ou" else 0.05, 6.0, size=30))
            f = rng.standard_normal(30) / math.sqrt(kernel.theta)
            dense = multivariate_normal(mean=np.zeros(30), cov=dense_covariance(kernel, times))
            assert build_precision(times, kernel).log_density(f) == pytest.approx(dense.logpdf(f), abs=1e-8)
            q = build_precision(times, kernel)
            cov_inv = np.linalg.inv(dense_covariance(kernel, times))
            assert q.quad_form(f) == pytest.approx(f @ cov_inv @ f, rel=1e-8)
            assert q.log_det() == pytest.approx(np.linalg.slogdet(cov_inv)[1], abs=1e-8)
            assert np.allclose(q.matvec(f), q.dense() @ f, atol=1e-9)

    def test_ou_draw_across_chunks(self, rng):
        # phi * span of about 3000 makes the draw run in several rescaled chunks
        kernel = OrnsteinUhlenbeckKernel(theta=1.7, phi=50.0)
        times = np.sort(rng.uniform(0.0, 60.0, size=300))
        assert kernel.phi * (times[-1] - times[0]) > 2000
        q = build_precision(times, kernel)
        n = 20_000
        draws = np.array([q.sample_zero_mean(rng) for _ in range(n)])
        assert np.all(np.isfinite(draws))
        # neighbours straddling each chunk cut and the closest pairs overall
        decay = kernel.phi * (times - times[0])
        cuts = np.flatnonzero(np.diff(np.floor(decay / _CHUNK_DECAY))) + 1
        close = np.argsort(np.diff(times))[:5] + 1
        sub = np.unique(np.concatenate([cuts - 1, cuts, close - 1, close]))
        emp = np.cov(draws[:, sub].T)
        cov = dense_covariance(kernel, times[sub])
        assert len(cuts) >= 6
        assert np.allclose(emp, cov, atol=5 * (1.0 / kernel.theta) * math.sqrt(2.0 / n))

    def test_zero_innovation_variance_rejected(self):
        for kernel in (OrnsteinUhlenbeckKernel(phi=2.0), BrownianMotionKernel(init_var=1.0)):
            for times in ([0.5, 0.5], [0.1, 1.0, 1.0, 2.0], [1.0, 0.5]):
                with pytest.raises(EvaluationError):
                    build_precision(times, kernel)
        # OU gaps so small that 1 - rho^2 is 0 in float64
        with pytest.raises(EvaluationError):
            build_precision([1.0, 1.0 + 1e-300], OrnsteinUhlenbeckKernel(phi=1e-30))
        # pinned Brownian motion has no variance at t = 0
        with pytest.raises(EvaluationError):
            build_precision([0.0, 1.0], BrownianMotionKernel(init_var=0.0))

    def test_tridiagonal_storage_is_linear(self):
        q = build_precision(np.arange(1.0, 1001.0), BrownianMotionKernel())
        d, s = q._cholesky()
        assert q.rho.shape == q.var.shape == d.shape == (1000,) and s.shape == (999,)


class TestLogPriorDensity:
    def test_zero_vector(self, rng):
        kernel = random_kernel(rng)
        times = np.sort(rng.uniform(0.1, 3.0, size=5))
        q = build_precision(times, kernel)
        expected = 0.5 * q.log_det() - 2.5 * math.log(2 * math.pi)
        assert q.log_density(np.zeros(5)) == pytest.approx(expected, abs=1e-12)

    def test_single_point_scalar_gaussian(self):
        # t=1, theta=1, no initial variance: f(1) ~ N(0, 1)
        k = BrownianMotionKernel(theta=1.0, init_var=0.0)
        assert build_precision([1.0], k).log_density([1.0]) == pytest.approx(
            -0.5 - 0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_matches_dense_gaussian(self, rng):
        for _ in range(5):
            kernel = random_kernel(rng)
            times = np.sort(rng.uniform(0.1, 4.0, size=6))
            f = rng.standard_normal(6)
            dense = multivariate_normal(mean=np.zeros(6), cov=dense_covariance(kernel, times))
            assert build_precision(times, kernel).log_density(f) == pytest.approx(
                dense.logpdf(f), abs=1e-8
            )

    def test_bm_theta_scaling(self, rng):
        # scaling theta by c scales the quadratic form by c and shifts the
        # log determinant by d*log(c)
        times = np.sort(rng.uniform(0.1, 3.0, size=6))
        f = rng.standard_normal(6)
        c = 3.7
        k1 = BrownianMotionKernel(theta=1.3, init_var=2.0)
        k2 = k1.with_theta(1.3 * c)
        q1, q2 = build_precision(times, k1), build_precision(times, k2)
        assert q2.log_det() - q1.log_det() == pytest.approx(6 * math.log(c), abs=1e-10)
        assert q2.quad_form(f) == pytest.approx(c * q1.quad_form(f), rel=1e-10)

    def test_marginalization_consistency(self, rng):
        # density of a sub-vector from the subset precision equals the dense
        # marginal of the full law
        for _ in range(4):
            kernel = random_kernel(rng)
            times = np.sort(rng.uniform(0.1, 4.0, size=6))
            f = rng.standard_normal(6)
            sub = np.sort(rng.choice(6, size=3, replace=False))
            dense = multivariate_normal(
                mean=np.zeros(3), cov=dense_covariance(kernel, times)[np.ix_(sub, sub)]
            )
            assert build_precision(times[sub], kernel).log_density(f[sub]) == pytest.approx(
                dense.logpdf(f[sub]), abs=1e-8
            )

    def test_split_and_condition(self, rng):
        # log N(full) = log N(subset) + log N(complement | subset)
        kernel = random_kernel(rng)
        times = np.sort(rng.uniform(0.1, 4.0, size=6))
        f = rng.standard_normal(6)
        sub = np.array([0, 2, 5])
        comp = np.array([1, 3, 4])
        cov = dense_covariance(kernel, times)
        mean, var = dense_conditional(cov, sub, comp, f[sub])
        cond = multivariate_normal(mean=mean, cov=var).logpdf(f[comp])
        total = build_precision(times[sub], kernel).log_density(f[sub]) + cond
        assert build_precision(times, kernel).log_density(f) == pytest.approx(total, abs=1e-8)


def bm_ou_closed_forms(kernel, t, lt, lf, rt, rf):
    """The kernels' conditional moments written out per kernel: the Brownian
    bridge in shifted time, and the OU two-sided regression."""
    if isinstance(kernel, BrownianMotionKernel):
        # gaps in t; a missing left neighbour is the pinned start u = 0
        gap_l, gap_r = np.where(np.isneginf(lt), t + kernel.init_var, t - lt), rt - t
        mean = lf + gap_l / (gap_l + gap_r) * (rf - lf)
        return mean, gap_l / ((1.0 + gap_l / gap_r) * kernel.theta)
    phi = kernel.phi
    rl, rr = np.exp(-phi * (t - lt)), np.exp(-phi * (rt - t))
    dl, dr = -np.expm1(-2.0 * phi * (t - lt)), -np.expm1(-2.0 * phi * (rt - t))
    den = 1.0 - (rl * rr) ** 2
    return (rl * dr * lf + rr * dl * rf) / den, dl * dr / (den * kernel.theta)


class TestConditionalMoments:
    def test_bm_bridge_closed_form(self):
        # between f(1)=a and f(3)=b the midpoint is Brownian-bridge distributed
        k = BrownianMotionKernel(theta=2.0, init_var=1.5)
        a, b = 0.7, -0.4
        mean, var = k.cond_moments_many(2.0, 1.0, a, 3.0, b)
        assert mean == pytest.approx((a + b) / 2)
        assert var == pytest.approx(0.5 / 2.0)

    def test_bm_forward_extension(self):
        k = BrownianMotionKernel(theta=0.8, init_var=3.0)
        mean, var = k.cond_moments_many(5.0, 2.0, 1.1, np.inf, 0.0)
        assert mean == pytest.approx(1.1)
        assert var == pytest.approx(3.0 / 0.8)

    @pytest.mark.parametrize("kind", ["bm", "ou"])
    def test_moments_match_dense_conditioning(self, kind, rng):
        for _ in range(8):
            kernel = random_kernel(rng, kind)
            times = np.sort(rng.uniform(0.1, 4.0, size=4))
            f = rng.standard_normal(4)
            cov5_times = np.sort(np.append(times, rng.uniform(0.1, 4.5)))
            t_new = float(np.setdiff1d(cov5_times, times)[0])
            cov = dense_covariance(kernel, cov5_times)
            new_i = int(np.where(cov5_times == t_new)[0][0])
            known_i = [i for i in range(5) if i != new_i]
            mean_o, var_o = dense_conditional(cov, np.array(known_i), np.array([new_i]), f)
            lt, lf, rt, rf = -np.inf, 0.0, np.inf, 0.0
            below = times < t_new
            if below.any():
                lt, lf = times[below][-1], f[below][-1]
            if (~below).any():
                rt, rf = times[~below][0], f[~below][0]
            mean, var = kernel.cond_moments_many(t_new, lt, lf, rt, rf)
            assert mean == pytest.approx(float(mean_o[0]), abs=1e-10)
            assert var == pytest.approx(float(var_o[0, 0]), abs=1e-10)

    @pytest.mark.parametrize("kind", ["bm", "ou"])
    def test_array_moments_match_scalar(self, kind, rng):
        # rows with both neighbours, no left one, no right one, and neither
        for _ in range(5):
            kernel = random_kernel(rng, kind)
            n = 40
            t = rng.uniform(0.5, 4.0, size=n)
            lt = t - rng.uniform(0.01, 0.5, size=n)
            rt = t + rng.uniform(0.01, 0.5, size=n)
            lf, rf = rng.standard_normal(n), rng.standard_normal(n)
            has_l = np.arange(n) % 4 < 2
            has_r = np.arange(n) % 2 == 0
            lt[~has_l], lf[~has_l] = -np.inf, 0.0
            rt[~has_r], rf[~has_r] = np.inf, 0.0
            mean, var = kernel.cond_moments_many(t, lt, lf, rt, rf)
            for i in range(n):
                m1, v1 = kernel.cond_moments_many(float(t[i]), lt[i], lf[i], rt[i], rf[i])
                assert mean[i] == pytest.approx(float(m1), rel=1e-12, abs=1e-12)
                assert var[i] == pytest.approx(float(v1), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["bm", "ou"])
    def test_shared_moments_match_kernel_closed_forms(self, kind, rng):
        # the moments derived from the innovations against each kernel's own
        # formulas, with gaps down to 1e-6 and missing neighbours
        kernel = random_kernel(rng, kind)
        n = 400
        t = rng.uniform(0.5, 4.0, size=n)
        lt = t - 10.0 ** rng.uniform(-6, 0, size=n)
        rt = t + 10.0 ** rng.uniform(-6, 0, size=n)
        lf, rf = rng.standard_normal(n), rng.standard_normal(n)
        lt[::3], lf[::3] = -np.inf, 0.0
        rt[::5], rf[::5] = np.inf, 0.0
        mean, var = kernel.cond_moments_many(t, lt, lf, rt, rf)
        mean_o, var_o = bm_ou_closed_forms(kernel, t, lt, lf, rt, rf)
        assert np.allclose(mean, mean_o, rtol=1e-10, atol=1e-12)
        assert np.allclose(var, var_o, rtol=1e-10, atol=0.0)

    def test_missing_neighbour_closed_forms(self):
        bm = BrownianMotionKernel(theta=2.0, init_var=1.5)
        # no left neighbour: bridge from the pinned start (u=0, f=0)
        mean, var = bm.cond_moments_many(1.0, -np.inf, 0.0, 3.0, 0.9)
        assert mean == pytest.approx(0.9 * 2.5 / 4.5)
        assert var == pytest.approx(2.5 * 2.0 / (4.5 * 2.0))
        mean, var = bm.cond_moments_many(1.0, -np.inf, 0.0, np.inf, 0.0)
        assert (mean, var) == (0.0, pytest.approx(2.5 / 2.0))
        ou = OrnsteinUhlenbeckKernel(theta=0.5, phi=1.3)
        mean, var = ou.cond_moments_many(1.0, -np.inf, 0.0, 1.4, 0.8)
        assert mean == pytest.approx(math.exp(-1.3 * 0.4) * 0.8)
        assert var == pytest.approx(-math.expm1(-2.6 * 0.4) / 0.5)
        assert ou.cond_moments_many(1.0, -np.inf, 0.0, np.inf, 0.0) == (0.0, pytest.approx(2.0))

    @pytest.mark.parametrize("kind", ["bm", "ou"])
    def test_innovation_matches_dense_covariance(self, kind, rng):
        # rho = C01 / C00 and v / theta = C11 - C01^2 / C00; from t0 = -inf
        # the innovation is the marginal law (BM from its pinned start)
        for _ in range(10):
            kernel = random_kernel(rng, kind)
            t0, t1 = np.sort(rng.uniform(0.0, 4.0, size=2))
            c = dense_covariance(kernel, [t0, t1])
            rho, v = kernel.innovation(t0, t1)
            assert rho == pytest.approx(c[0, 1] / c[0, 0], rel=1e-12)
            assert v / kernel.theta == pytest.approx(c[1, 1] - c[0, 1] ** 2 / c[0, 0], rel=1e-10)
            rho, v = kernel.innovation(-np.inf, t1)
            assert rho == (1.0 if kind == "bm" else 0.0)
            assert v / kernel.theta == pytest.approx(c[1, 1], rel=1e-12)

    def test_bm_gap_below_ulp_of_init_var(self):
        # a gap far below ulp(init_var) ~ 1.4e-14 keeps its exact length
        kernel = BrownianMotionKernel()
        t0 = 1e-9
        for gap in (1e-13, 1e-15):
            rho, v = kernel.innovation(t0, t0 + gap)
            assert rho == 1.0 and v == (t0 + gap) - t0 and v > 0
        prec = kernel.structure_tridiag([t0, t0 + 1e-15, 0.5])
        assert np.all(prec.var > 0)

    def test_draw_monte_carlo_moments(self, rng):
        # 1e5 draws between two anchors: sample moments within 4 standard errors
        kernel = BrownianMotionKernel(theta=1.7, init_var=0.5)
        field = LatentField([1.0, 3.0], [0.6, -0.2], [True, True])
        n = 100_000
        draws = np.array([conditional_draw_at(field, 2.0, kernel, rng) for _ in range(n)])
        mean, var = kernel.cond_moments_many(2.0, 1.0, 0.6, 3.0, -0.2)
        se_mean = math.sqrt(var / n)
        assert abs(draws.mean() - mean) < 4 * se_mean
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert abs(draws.var(ddof=1) - var) < 4 * se_var


class FixedNormals:
    """A stand-in generator whose normals are given in advance."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, n):
        assert n == len(self.z)
        return self.z.copy()


class TestJointDraws:
    def test_grid_subset_of_field_copies(self, rng):
        kernel = random_kernel(rng)
        times = np.array([0.5, 1.0, 2.0, 3.0])
        vals = rng.standard_normal(4)
        field = LatentField(times, vals, [True] * 4)
        out = predictive_grid_draw(field, np.array([1.0, 3.0]), kernel, rng)
        assert np.array_equal(out, vals[[1, 3]])

    def test_single_interior_point_reduces_to_conditional(self, rng):
        kernel = random_kernel(rng)
        field = LatentField([1.0, 3.0], [0.5, 0.1], [True, True])
        state = rng.bit_generator.state
        a = predictive_grid_draw(field, np.array([2.0]), kernel, rng)
        rng.bit_generator.state = state
        b = conditional_draw_at(field, 2.0, kernel, rng)
        assert a[0] == b

    def test_joint_grid_covariance_matches_dense(self, rng):
        # empirical covariance of a 3-point joint draw against the dense oracle
        kernel = OrnsteinUhlenbeckKernel(theta=1.2, phi=0.9)
        times = np.array([1.0, 2.5])
        f = np.array([0.4, -0.7])
        field = LatentField(times, f, [True, True])
        grid = np.array([0.5, 1.6, 3.1])
        n = 40_000
        draws = np.vstack([predictive_grid_draw(field, grid, kernel, rng) for _ in range(n)])
        all_times = np.array([0.5, 1.0, 1.6, 2.5, 3.1])
        cov = dense_covariance(kernel, all_times)
        mean_o, var_o = dense_conditional(cov, np.array([1, 3]), np.array([0, 2, 4]), f)
        assert np.allclose(draws.mean(axis=0), mean_o, atol=4 * np.sqrt(np.diag(var_o) / n))
        emp = np.cov(draws.T)
        assert np.allclose(emp, var_o, atol=5 * np.max(np.abs(var_o)) * math.sqrt(2.0 / n) + 5e-4)

    @pytest.mark.parametrize("kind", ["bm", "ou"])
    @pytest.mark.parametrize("field_times", [(), (1.0, 2.5)], ids=["empty", "two-points"])
    def test_draw_is_the_dense_conditional(self, kind, field_times, rng):
        # the draw is affine in its normals, out = b + A z; with several new
        # times before, between and after the field points, b must be the
        # dense conditional mean and A A^T its covariance
        kernel = random_kernel(rng, kind)
        field_times = np.array(field_times)
        f = rng.standard_normal(len(field_times))
        field = LatentField(field_times, f, np.ones(len(f), dtype=bool))
        grid = np.array([0.2, 0.6, 0.9, 1.3, 1.6, 1.7, 2.1, 3.0, 3.4])
        b = predictive_grid_draw(field, grid, kernel, FixedNormals(np.zeros(len(grid))))
        a = np.column_stack(
            [predictive_grid_draw(field, grid, kernel, FixedNormals(e)) - b for e in np.eye(len(grid))]
        )
        all_times = np.sort(np.r_[field_times, grid])
        known = np.searchsorted(all_times, field_times)
        new = np.searchsorted(all_times, grid)
        mean_o, var_o = dense_conditional(dense_covariance(kernel, all_times), known, new, f)
        assert np.allclose(b, mean_o, atol=1e-10)
        assert np.allclose(a @ a.T, var_o, atol=1e-10)
        assert np.allclose(np.tril(a), a)  # each time sees only the normals up to its own

    def test_insert_then_remove_leaves_density_unchanged(self, rng):
        kernel = random_kernel(rng)
        times = np.sort(rng.uniform(0.1, 3.0, size=4))
        field = LatentField(times, rng.standard_normal(4), [True] * 4)
        before = build_precision(field.times, kernel).log_density(field.values)
        t_new = 5.0
        val = conditional_draw_at(field, t_new, kernel, rng)
        j = field.insert(t_new, val)
        field.remove(j)
        after = build_precision(field.times, kernel).log_density(field.values)
        assert before == after

    def test_collision_raises(self, rng):
        kernel = random_kernel(rng)
        field = LatentField([1.0, 2.0], [0.0, 0.0], [True, True])
        with pytest.raises(EvaluationError):
            conditional_draw_at(field, 2.0, kernel, rng)
        with pytest.raises(EvaluationError):
            field.insert(1.0, 0.0)


def test_kernel_json_round_trip():
    for k in (BrownianMotionKernel(theta=2.0, init_var=7.0), OrnsteinUhlenbeckKernel(theta=0.5, phi=2.0)):
        assert kernel_from_json(kernel_to_json(k)) == k
