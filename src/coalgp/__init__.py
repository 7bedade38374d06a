"""Coalescent-time simulation by thinning and sigmoidal-GP Bayesian inference
of effective population size trajectories from genealogies."""

__version__ = "0.1.0"

from .errors import (
    CoalgpError,
    EvaluationError,
    McmcError,
    NewickError,
    SimulationError,
    ValidationError,
)
from .genealogy import (
    CoalescentData,
    Genealogy,
    IntervalGrid,
    build_interval_grid,
    coalescent_factor,
    extract_coalescent_data,
    parse_newick,
)
from .gp_prior import (
    BrownianMotionKernel,
    LatentField,
    OrnsteinUhlenbeckKernel,
    build_precision,
    predictive_grid_draw,
)
from .likelihood import (
    LambdaPrior,
    lambda_log_prior,
    log_augmented_likelihood,
    log_coalescent_likelihood,
    ne_from_f,
)
from .mcmc import ChainOutput, McmcConfig, run_chain
from .simulate import (
    DeterministicSpec,
    SimulationRecord,
    simulate_hetero_thinning,
    simulate_hetero_thinning_gp,
    simulate_time_transform,
)
from .summarize import MetricReport, PosteriorSummary, envelope, metric_report, mrw, sre, summarize, variation
from .trajectories import (
    BoomBustTrajectory,
    ConstantTrajectory,
    ExpGrowthTrajectory,
    Trajectory,
    parse_trajectory,
)
