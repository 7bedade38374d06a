"""Prior-recovery chain: the sampler's hyperparameter moves with no data.

With no data there are no latent points and no f, so theta's full
conditional is its prior, and the production lambda step
(:func:`coalgp.mcmc.mh_lambda`) with an empty field and zero hazard weight
leaves lambda's prior ratio.  Both chains must then reproduce their priors
(acceptance criterion 7 and ``tests/test_mcmc.py``).
"""

import math

import numpy as np

from coalgp.gp_prior import GPKernel, LatentField
from coalgp.mcmc import ChainState, McmcConfig, mh_lambda

_TWO_PI = 2.0 * math.pi


def log_gamma_draw(shape: float, rng: np.random.Generator) -> float:
    """log of one Gamma(shape, 1) draw, exact even for tiny shapes.

    Uses G = G' * U^(1/shape) with G' ~ Gamma(shape + 1): the log survives
    where the draw itself would underflow (log G spreads over ~1/shape).
    """
    gprime = 0.0
    while gprime <= 0.0:
        gprime = rng.gamma(shape + 1.0, 1.0)
    return math.log(gprime) + math.log(rng.random()) / shape


def run_prior_chain(cfg: McmcConfig, kernel: GPKernel, times=()) -> dict:
    """Prior-recovery chain: every data term off, hyperparameters only.

    Theta is drawn exactly in log space (the default Gamma(0.001, 0.001) has
    most of its mass below float64 range); lambda moves through the
    production reflected-uniform kernel.  Passing ``times`` adds a whitened
    f-block (g = f * sqrt(theta)) so the theta <-> f alternation is exercised
    too; that alternation mixes across log-theta in unit steps, so diffuse
    hyperpriors need of the order of Var[log theta] sweeps to converge.
    Returns thinned post-burn-in draws of log(theta) and lambda.
    """
    times = np.asarray(times, dtype=float)
    d = len(times)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    struct = kernel.structure_tridiag(times) if d else None
    g = struct.sample_zero_mean(rng) if d else None
    log_theta = 0.0
    prior = cfg.lambda_prior
    lam_state = ChainState(LatentField(), 1.0, cfg.lambda_hat)
    shape = cfg.theta_alpha + 0.5 * d
    out_log_theta: list[float] = []
    out_lam: list[float] = []
    for it in range(cfg.iterations):
        if d:
            nu = struct.sample_zero_mean(rng)
            ang = rng.uniform(0.0, _TWO_PI)
            g = g * math.cos(ang) + nu * math.sin(ang)
            log_quad = math.log(0.5 * struct.quad_form(g)) - log_theta
            log_rate = float(np.logaddexp(math.log(cfg.theta_beta), log_quad))
            new_log_theta = log_gamma_draw(shape, rng) - log_rate
            g = g * math.exp(0.5 * (new_log_theta - log_theta))
            log_theta = new_log_theta
        else:
            log_theta = log_gamma_draw(shape, rng) - math.log(cfg.theta_beta)
        mh_lambda(lam_state, prior, cfg.halfwidth, 0.0, rng)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            out_log_theta.append(log_theta)
            out_lam.append(lam_state.lam)
    return {"log_theta": np.asarray(out_log_theta), "lambda": np.asarray(out_lam)}
