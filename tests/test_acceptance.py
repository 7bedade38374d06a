"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Everything is seeded; the statistical checks were sized so their pass
probability under a correct implementation is overwhelming, and the seeds
make reruns deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import special as sp

import geweke
from prior_chain import run_prior_chain
from coalgp.genealogy import CoalescentData, build_interval_grid
from coalgp.gp_prior import BrownianMotionKernel, LatentField
from coalgp.likelihood import log_augmented_likelihood, log_coalescent_likelihood
from coalgp.mcmc import (
    ChainState,
    McmcConfig,
    mcmc_sweep,
    rj_log_accept_add,
    rj_log_accept_remove,
    run_chain,
)
from coalgp.simulate import (
    DeterministicSpec,
    ks_against_oracle,
    simulate_hetero_thinning,
    simulate_hetero_thinning_gp,
    simulate_time_transform,
)
from coalgp.summarize import envelope, metric_report, mrw, sre, summarize, variation
from coalgp.trajectories import BoomBustTrajectory, ConstantTrajectory, ExpGrowthTrajectory


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


def test_criterion_1_simulator_oracle_equivalence():
    scenarios = [
        ("constant", DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)),
        ("expgrowth", DeterministicSpec(ExpGrowthTrajectory(25.0, 5.0))),
        ("boombust", DeterministicSpec(BoomBustTrajectory())),
    ]
    n, reps = 10, 10_000
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for name, spec in scenarios:
        rng = np.random.Generator(np.random.Philox(101))
        thinned = np.empty((reps, n - 1))
        for r in range(reps):
            thinned[r] = simulate_hetero_thinning([0.0], [n], spec, [rng])[0].coal_times
        oracle = simulate_time_transform(spec.traj, rng, [0.0], [n], 100_000)
        ks = ks_against_oracle(thinned, oracle)
        worst = max(worst, float(ks.max()))
        details.append(f"{name} max KS {ks.max():.4f}")
    elapsed = time.perf_counter() - t0
    report(
        "1 simulator-oracle equivalence",
        worst < 0.02 and elapsed < 120.0,
        "; ".join(details) + f"; runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_2_pairwise_survival_curve():
    # P(t_1 > t) must equal exp(-(e^{5t} - 1)/125) under N_e(t) = 25 e^{-5t}
    spec = DeterministicSpec(ExpGrowthTrajectory(25.0, 5.0))
    rng = np.random.Generator(np.random.Philox(202))
    reps = 10_000
    draws = np.array([simulate_hetero_thinning([0.0], [2], spec, [rng])[0].coal_times[0] for r in range(reps)])
    worst_z, details = 0.0, []
    for t in (0.2, 0.5, 0.9):
        p = math.exp(-(math.exp(5.0 * t) - 1.0) / 125.0)
        se = math.sqrt(p * (1.0 - p) / reps)
        z = (np.mean(draws > t) - p) / se
        worst_z = max(worst_z, abs(z))
        details.append(f"t={t}: z={z:+.2f}")
    report("2 survival-curve check", worst_z < 4.0, "; ".join(details))


def test_criterion_3_reversible_jump_identity():
    rng = np.random.Generator(np.random.Philox(303))
    worst = 0.0
    for _ in range(10_000):
        length = rng.uniform(0.01, 5.0)
        lam = rng.uniform(0.05, 20.0)
        factor = float(rng.integers(1, 50))
        m = int(rng.integers(0, 30))
        f_star = rng.standard_normal() * 5.0
        total = rj_log_accept_add(length, lam, factor, m, f_star) + rj_log_accept_remove(
            length, lam, factor, m + 1, f_star
        )
        worst = max(worst, abs(math.exp(total) - 1.0))
    report("3 reversible-jump identity", worst <= 1e-12, f"max |a_up*a_down - 1| = {worst:.2e}")


def test_criterion_4_geweke_joint_distribution():
    rng = np.random.Generator(np.random.Philox(404))
    cfg = geweke.default_config(lambda_hat=3.0, lambda_halfwidth=3.0)
    kernel = BrownianMotionKernel(init_var=geweke.INIT_VAR)
    mc = geweke.marginal_conditional([0.0], [5], kernel, cfg, 20_000, rng)
    sc = geweke.successive_conditional(
        [0.0], [5], kernel, cfg, 90_000, rng, extra_lambda_steps=5
    )
    min_ess = min(
        min(geweke.effective_sample_size(mc[:, j]), geweke.effective_sample_size(sc[:, j]))
        for j in range(3)
    )
    scores = geweke.moment_z_scores(mc, sc)
    worst = max(abs(z) for z in scores.values())
    detail = ", ".join(f"{k}={v:+.2f}" for k, v in scores.items())
    report(
        "4 Geweke joint-distribution test",
        worst < 4.0 and min_ess >= 10_000,
        f"min ESS {min_ess:.0f}; z: {detail}",
    )


def test_criterion_5_metric_exactness():
    ones150 = np.ones(150)
    t10 = np.linspace(1.0, 2.0, 10)
    mono = np.linspace(0.3, 4.0, 25)
    half = np.concatenate([np.full(75, 0.5), np.full(75, 2.0)])
    checks = [
        ("sre identical", sre(ones150, ones150), 0.0),
        ("sre doubled", sre(2.0 * ones150, ones150), 150.0),
        ("sre +10%", sre(1.1 * t10, t10), 1.0),
        ("mrw degenerate", mrw(ones150, ones150, ones150), 0.0),
        ("mrw unit width", mrw(ones150, 2.0 * ones150, ones150), 1.0),
        ("mrw hand sum", mrw([0.0, 0.0], [1.0, 3.0], [1.0, 1.0]), 2.0),
        ("envelope covered", envelope(ones150 - 0.5, ones150 + 0.5, ones150), 1.0),
        ("envelope missed", envelope(ones150 + 0.5, ones150 + 1.0, ones150), 0.0),
        ("envelope half", envelope(half, half + 1.0, ones150), 0.5),
        ("variation constant", variation(ones150), 0.0),
        ("variation 1-3-2", variation([1.0, 3.0, 2.0]), 3.0),
        ("variation monotone", variation(mono), abs(mono[-1] - mono[0])),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    report("5 metric exactness", worst <= 1e-12, f"max abs error {worst:.2e} over {len(checks)} hand values")


@pytest.mark.slow
def test_criterion_6_desk_scale_recovery():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(1234))
    coal = simulate_time_transform(ConstantTrajectory(1.0), rng, [0.0], [100], 1)[0]
    data = CoalescentData.isochronous(coal)
    cfg = McmcConfig(
        iterations=100_000, burn_in=20_000, thin=10, seed=42,
        theta_alpha=0.001, theta_beta=0.001, lambda_hat=10.0, lambda_eps=0.01,
    )
    chain = run_chain(data, cfg, BrownianMotionKernel(init_var=100.0))
    grid = np.linspace(0.0, data.tmrca, 150)
    summary = summarize(chain, grid, np.random.Generator(np.random.Philox(77)))
    rep = metric_report(summary, ConstantTrajectory(1.0).ne(grid))
    elapsed = time.perf_counter() - t0
    report(
        "6 desk-scale recovery",
        rep.envelope >= 0.95 and rep.sre <= 25.0 and elapsed < 1800.0,
        f"envelope {rep.envelope:.3f} >= 0.95, SRE {rep.sre:.2f} <= 25, "
        f"MRW {rep.mrw:.3f}, variation {rep.variation:.3f}, runtime {elapsed / 60:.1f} min < 30 min",
    )


def _gamma_cdf_from_log(log_x: float, alpha: float, beta: float) -> float:
    log_y = log_x + math.log(beta)
    if log_y < -15.0:  # series head of the lower incomplete gamma
        return math.exp(alpha * log_y - math.lgamma(alpha + 1.0))
    return float(sp.gammainc(alpha, math.exp(log_y)))


def _ks_vs_cdf(draws: np.ndarray, cdf) -> float:
    x = np.sort(draws)
    n = len(x)
    values = np.array([cdf(v) for v in x])
    return max(
        float(np.max(np.abs(np.arange(1, n + 1) / n - values))),
        float(np.max(np.abs(np.arange(0, n) / n - values))),
    )


def test_criterion_7_prior_recovery():
    alpha = beta = 0.001
    lam_hat, eps = 10.0, 0.01
    cfg = McmcConfig(
        iterations=220_000, burn_in=20_000, thin=20, seed=31,
        theta_alpha=alpha, theta_beta=beta, lambda_hat=lam_hat, lambda_eps=eps,
        lambda_halfwidth=10.0,
    )
    out = run_prior_chain(cfg, BrownianMotionKernel(init_var=100.0))
    lt, lam = out["log_theta"], out["lambda"]
    assert len(lam) == 10_000

    def lam_cdf(x):
        if x <= 0.0:
            return 0.0
        if x < lam_hat:
            return eps * x / lam_hat
        return eps + (1.0 - eps) * (1.0 - math.exp(-(x - lam_hat) / lam_hat))

    ks_theta = _ks_vs_cdf(lt, lambda v: _gamma_cdf_from_log(v, alpha, beta))
    ks_lam = _ks_vs_cdf(lam, lam_cdf)
    mean_want = float(sp.psi(alpha)) - math.log(beta)
    var_want = float(sp.polygamma(1, alpha))
    z_mean = (lt.mean() - mean_want) / geweke.batch_se(lt)
    z_var = (np.mean((lt - mean_want) ** 2) - var_want) / geweke.batch_se((lt - mean_want) ** 2)
    report(
        "7 prior recovery",
        ks_theta < 0.03 and ks_lam < 0.03 and abs(z_mean) < 4 and abs(z_var) < 4,
        f"KS(log theta) {ks_theta:.4f} < 0.03, KS(lambda) {ks_lam:.4f} < 0.03, "
        f"log-moment z: mean {z_mean:+.2f}, var {z_var:+.2f}",
    )


def test_criterion_8_heterochronous_reduction():
    kernel = BrownianMotionKernel(init_var=1.0)
    ok = True
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(800 + seed))
        n = int(rng.integers(4, 9))
        coal = simulate_time_transform(ConstantTrajectory(1.0), rng, [0.0], [n], 1)[0]
        iso_data = CoalescentData.isochronous(coal)
        het_data = CoalescentData(coal, np.array([0.0]), np.array([n]))

        traj = ExpGrowthTrajectory(5.0, 1.0)
        ok &= log_coalescent_likelihood(iso_data, traj) == log_coalescent_likelihood(het_data, traj)

        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1.5)
        det_a = simulate_hetero_thinning([0.0], [n], spec, [np.random.Generator(np.random.Philox(seed))])[0]
        det_b = simulate_hetero_thinning(
            [0.0], [n], spec, [np.random.Generator(np.random.Philox(seed))]
        )[0]
        ok &= np.array_equal(det_a.coal_times, det_b.coal_times)

        gp_a = simulate_hetero_thinning_gp(
            [0.0], [n], kernel, 2.0, [np.random.Generator(np.random.Philox(seed))]
        )[0]
        gp_b = simulate_hetero_thinning_gp(
            [0.0], [n], kernel, 2.0, [np.random.Generator(np.random.Philox(seed))]
        )[0]
        ok &= np.array_equal(gp_a.coal_times, gp_b.coal_times)
        ok &= np.array_equal(gp_a.gp_field.values, gp_b.gp_field.values)
        grid_a = build_interval_grid(CoalescentData(gp_a.coal_times, [0.0], [n]))
        grid_b = build_interval_grid(CoalescentData(gp_b.coal_times, [0.0], [n]))
        ok &= log_augmented_likelihood(gp_a.gp_field, grid_a, 2.0) == log_augmented_likelihood(
            gp_b.gp_field, grid_b, 2.0
        )

        cfg = McmcConfig(iterations=200, burn_in=50, thin=5, seed=seed, lambda_hat=3.0)
        run_a, run_b = run_chain(iso_data, cfg, kernel), run_chain(het_data, cfg, kernel)
        for da, db in zip(run_a.draws, run_b.draws):
            ok &= (
                da.theta == db.theta
                and da.lam == db.lam
                and np.array_equal(da.field.times, db.field.times)
                and np.array_equal(da.field.values, db.field.values)
            )
    report("8 heterochronous reduction", bool(ok), "5 instances bit-identical across code paths")


def test_criterion_9_linear_iteration_cost():
    rng = np.random.Generator(np.random.Philox(7))
    coal = simulate_time_transform(ConstantTrajectory(1.0), rng, [0.0], [40], 1)[0]
    data = CoalescentData.isochronous(coal)
    grid = build_interval_grid(data)
    cfg = McmcConfig(iterations=10, burn_in=0, lambda_hat=10.0)
    kernel = BrownianMotionKernel(init_var=100.0)

    def make_state(total_points):
        lat = np.unique(rng.uniform(1e-9, data.tmrca - 1e-9, size=total_points - len(coal)))
        times = np.concatenate([coal, lat])
        order = np.argsort(times)
        is_coal = np.concatenate([np.ones(len(coal), bool), np.zeros(len(lat), bool)])[order]
        field = LatentField(times[order], np.zeros(len(times)), is_coal)
        return ChainState(field, 1.0, 10.0)

    def per_sweep_seconds(total_points, sweeps=20, tries=5):
        best = math.inf
        for _ in range(tries):
            state = make_state(total_points)
            sweep_rng = np.random.Generator(np.random.Philox(3))
            t0 = time.perf_counter()
            for _ in range(sweeps):
                mcmc_sweep(state, grid, kernel, cfg, sweep_rng)
            best = min(best, (time.perf_counter() - t0) / sweeps)
        return best

    t500 = per_sweep_seconds(500)
    t1000 = per_sweep_seconds(1000)
    ratio = t1000 / t500
    report(
        "9 linear iteration cost",
        ratio <= 2.0,
        f"{t500 * 1e3:.2f} ms at 500 points vs {t1000 * 1e3:.2f} ms at 1000; ratio {ratio:.2f} <= 2",
    )
