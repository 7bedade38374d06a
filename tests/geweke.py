"""Joint-distribution agreement harness for the sampler.

Two ways of sampling the joint law of (hyperparameters, augmented data) must
agree when every transition kernel is exact: drawing hyperparameters from
their priors and data from the generative thinning simulator (independent
draws), versus alternating posterior MCMC sweeps with data refreshes given
the current hyperparameters (a Markov chain with the same stationary joint).
Disagreement in any moment flags a defective kernel.
"""

import numpy as np

from coalgp.genealogy import CoalescentData, build_interval_grid
from coalgp.gp_prior import LatentField
from coalgp.likelihood import LambdaPrior
from coalgp.mcmc import ChainState, McmcConfig, mcmc_sweep, mh_lambda
from coalgp.simulate import simulate_hetero_thinning_gp

STAT_NAMES = ("theta", "lambda", "mean_f")


def sample_lambda_prior(prior: LambdaPrior, rng: np.random.Generator) -> float:
    """One draw from the bound prior: uniform on (0, lam_hat) with
    probability eps, else lam_hat plus an exponential of scale lam_hat."""
    if rng.random() < prior.eps:
        return float(rng.uniform(0.0, prior.lam_hat))
    return float(prior.lam_hat + rng.exponential(prior.lam_hat))


def _draw_joint(samp_times, samp_counts, kernel, cfg, rng):
    theta = rng.gamma(cfg.theta_alpha, 1.0 / cfg.theta_beta)
    lam = sample_lambda_prior(cfg.lambda_prior, rng)
    rec = simulate_hetero_thinning_gp(samp_times, samp_counts, kernel.with_theta(theta), lam, [rng])[0]
    return theta, lam, rec


def _stats(theta, lam, rec):
    return theta, lam, float(rec.gp_field.values.mean())


def marginal_conditional(samp_times, samp_counts, kernel, cfg, n_samples, rng):
    """Independent draws from priors + generative simulator."""
    out = np.empty((n_samples, 3))
    for s in range(n_samples):
        out[s] = _stats(*_draw_joint(samp_times, samp_counts, kernel, cfg, rng))
    return out


def successive_conditional(
    samp_times, samp_counts, kernel, cfg, n_samples, rng,
    sweeps_per_cycle=1, extra_lambda_steps=0,
):
    """MCMC parameter sweeps alternated with data re-simulation.

    ``extra_lambda_steps`` applies additional (invariant) bound updates per
    cycle; the bound mixes slowest because the latent count tracks it.
    """
    theta, lam, rec = _draw_joint(samp_times, samp_counts, kernel, cfg, rng)
    out = np.empty((n_samples, 3))
    for s in range(n_samples):
        data = CoalescentData(rec.coal_times, samp_times, samp_counts)
        grid = build_interval_grid(data)
        fld = rec.gp_field
        state = ChainState(LatentField(fld.times, fld.values, fld.is_coal), theta, lam)
        for _ in range(sweeps_per_cycle):
            mcmc_sweep(state, grid, kernel, cfg, rng)
        for _ in range(extra_lambda_steps):
            mh_lambda(state, cfg.lambda_prior, cfg.halfwidth, grid.total_hazard_weight, rng)
        theta, lam = state.theta, state.lam
        rec = simulate_hetero_thinning_gp(
            samp_times, samp_counts, kernel.with_theta(theta), lam, [rng]
        )[0]
        out[s] = _stats(theta, lam, rec)
    return out


def effective_sample_size(x: np.ndarray, max_lag: int = 5000) -> float:
    """ESS from the truncated autocorrelation sum (cut at the first lag
    below 0.01)."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = len(x)
    acf = np.correlate(x, x, "full")[n - 1 :] / (np.arange(n, 0, -1) * x.var())
    s = 1.0
    for k in range(1, min(n, max_lag)):
        if acf[k] < 0.01:
            break
        s += 2.0 * acf[k]
    return n / s


def batch_se(x: np.ndarray, n_batches: int = 50) -> float:
    """Standard error of the mean from batch means (handles autocorrelation)."""
    usable = (len(x) // n_batches) * n_batches
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def moment_z_scores(a: np.ndarray, b: np.ndarray) -> dict:
    """z-scores comparing first and second moments of each statistic column."""
    scores = {}
    for j, name in enumerate(STAT_NAMES):
        for power, tag in ((1, "mean"), (2, "second_moment")):
            xa, xb = a[:, j] ** power, b[:, j] ** power
            se = np.hypot(batch_se(xa), batch_se(xb))
            scores[f"{name}_{tag}"] = float((xa.mean() - xb.mean()) / se)
    return scores


INIT_VAR = 0.1  # keeps the free initial level tight; see default_config


def default_config(**overrides) -> McmcConfig:
    """Concentrated hyperpriors for the comparison runs.

    The generative simulator's run time is heavy-tailed whenever lambda*theta
    can get small: a low excursion of f inflates N_e by e^{|f|}, which
    stretches the drought, which lets the motion wander further down.  The
    runaway threshold is a dip below about log(lambda*theta), so the priors
    here keep lambda >= lambda_hat with near certainty (vanishing uniform
    mass) and theta concentrated, making that dip a many-sigma event while f
    still varies enough to exercise every sigmoid factor.
    """
    base = dict(
        iterations=10,
        burn_in=0,
        thin=1,
        seed=0,
        theta_alpha=30.0,
        theta_beta=3.0,
        lambda_hat=6.0,
        lambda_eps=1e-4,
        lambda_halfwidth=1.0,
    )
    base.update(overrides)
    return McmcConfig(**base)
