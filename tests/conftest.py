import itertools

import numpy as np
import pytest

from coalgp.genealogy import CoalescentData, TreeNode
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


def random_tree(rng: np.random.Generator, data: CoalescentData) -> TreeNode:
    """A random tree with ``data``'s coalescent times and sampling schedule:
    tips join at their sampling times and each coalescence merges two active
    lineages chosen uniformly (the Kingman topology)."""
    events = [(t, 1, int(c)) for t, c in zip(data.samp_times, data.samp_counts)]
    events += [(t, 0, 0) for t in data.coal_times]  # a coalescence precedes a tied sampling
    active: list[TreeNode] = []
    labels = itertools.count()
    for t, is_sampling, count in sorted(events):
        if is_sampling:
            for _ in range(count):
                active.append(TreeNode(label=f"s{next(labels)}"))
                active[-1].height = t
            continue
        pair = [active.pop(j) for j in sorted(rng.choice(len(active), 2, replace=False), reverse=True)]
        for child in pair:
            child.branch_length = t - child.height
        active.append(TreeNode(children=pair))
        active[-1].height = t
    (root,) = active
    return root


def two_pass_heights(root: TreeNode) -> dict:
    """Node heights keyed by ``id(node)``, by two passes: root-to-node depths
    in breadth-first order, then the deepest tip's depth minus each depth.
    The reference for the one-pass walk in ``Genealogy``."""
    depth = {id(root): 0.0}
    order = [root]
    for node in order:
        for child in node.children:
            depth[id(child)] = depth[id(node)] + child.branch_length
            order.append(child)
    max_tip_depth = max(depth[id(n)] for n in order if n.is_tip)
    return {id(n): max_tip_depth - depth[id(n)] for n in order}


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
