import numpy as np
import pytest

from coalgp.genealogy import CoalescentData
from coalgp.gp_prior import BrownianMotionKernel
from coalgp.simulate import simulate_time_transform
from coalgp.trajectories import ConstantTrajectory


def random_hetero_data(rng: np.random.Generator, max_batches: int = 3) -> CoalescentData:
    """A valid random heterochronous dataset built through the exact sampler."""
    m = int(rng.integers(1, max_batches + 1))
    samp_times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 1.5, size=m - 1))])
    samp_counts = rng.integers(1, 5, size=m)
    samp_counts[0] = max(2, samp_counts[0])
    coal = simulate_time_transform(
        ConstantTrajectory(float(rng.uniform(0.5, 2.0))), rng, samp_times, samp_counts, 1
    )[0]
    return CoalescentData(coal, samp_times, samp_counts)


def dense_covariance(kernel, times) -> np.ndarray:
    """The kernel's covariance matrix at ``times`` (the dense oracle):
    (init_var + min(t, t'))/theta for Brownian motion, exp(-phi |t - t'|)/theta
    for Ornstein-Uhlenbeck."""
    t = np.asarray(times, dtype=float)
    if isinstance(kernel, BrownianMotionKernel):
        u = t + kernel.init_var
        return np.minimum.outer(u, u) / kernel.theta
    return np.exp(-kernel.phi * np.abs(np.subtract.outer(t, t))) / kernel.theta


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
