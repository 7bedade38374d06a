"""Augmented-posterior MCMC for the sigmoidal-GP coalescent model.

One iteration cycles five invariant kernels in a fixed order: a
reversible-jump add/remove proposal in every inter-event interval (latent
point counts), a Metropolis relocation of latent points, one elliptical slice
transition on the full f-vector, a Gibbs draw of the GP precision theta, and
a reflected-uniform Metropolis step on the thinning bound lambda.  All
acceptance ratios are evaluated in log space; any proposal whose log ratio is
non-finite is rejected.

The reversible-jump sweep is block-parallel.  A block is the run of intervals
between two consecutive coalescent events.  No RJ move touches the f-values
at coalescent events, and given them the GP (being Markov) and the augmented
likelihood (a product over intervals) make the latent points of different
blocks conditionally independent.  Pass k therefore proposes, scores and
applies the moves of the k-th interval of every block with a handful of array
operations and one splice of the field.  The number of passes is the most
intervals any block holds: 1 for isochronous data.

The chain state is the field, theta and lambda.  How many latent points each
interval holds, and where they sit in the field, is read off the field by
:meth:`IntervalGrid.latent_slices` whenever a kernel or the likelihood needs
it, so no count is kept in step by hand.  The state also carries a tally of
accepted and attempted moves per kernel: bookkeeping that every kernel adds
to and none reads.  The field's times stay fixed after relocation, so each
sweep builds one theta-free prior precision (the GP's innovations) at them.
The slice step's prior draw, theta's Gamma rate and the log posterior's prior
density all read it; theta is applied as the scalar that divides the
innovation variances.

:func:`run_chain` is the one sampler, each iteration one :func:`mcmc_sweep`
of all five kernels.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from dataclasses import field as dataclass_field

import numpy as np

from .errors import EvaluationError, McmcError, ValidationError, require_keys
from .genealogy import CoalescentData, IntervalGrid, build_interval_grid
from .gp_prior import (
    GPKernel,
    LatentField,
    TridiagPrecision,
    build_precision,  # noqa: F401 - unused here; perfbench's tracer wraps this binding
    conditional_draw_at,
    kernel_from_json,
    kernel_to_json,
    predictive_grid_draw,
)
from .likelihood import LambdaPrior, lambda_log_prior, log_augmented_likelihood, log_sigmoid

_TWO_PI = 2.0 * math.pi
_MAX_SLICE_SHRINKS = 10_000
_TALLIED = ("rj_add", "rj_remove", "location", "ess", "lambda")


@dataclass
class McmcConfig:
    iterations: int = 10_000
    burn_in: int = 1_000
    thin: int = 1
    seed: int = 0
    theta_alpha: float = 0.001
    theta_beta: float = 0.001
    lambda_hat: float = 10.0
    lambda_eps: float = 0.01
    lambda_halfwidth: float | None = None
    rj_sweeps: int = 1
    location_moves: int = 1

    def __post_init__(self):
        if self.iterations <= 0 or self.burn_in < 0 or self.thin < 1:
            raise ValueError("iterations, burn_in, thin must be positive (burn_in >= 0)")
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        for name in ("theta_alpha", "theta_beta", "lambda_hat", "lambda_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lambda_halfwidth is not None and not self.lambda_halfwidth > 0:
            raise ValueError("lambda_halfwidth must be positive (None: 0.1 * lambda_hat)")
        if self.rj_sweeps < 0 or self.location_moves < 0:
            raise ValueError("per-iteration move counts must be non-negative")

    @property
    def halfwidth(self) -> float:
        return self.lambda_halfwidth if self.lambda_halfwidth is not None else 0.1 * self.lambda_hat

    @property
    def lambda_prior(self) -> LambdaPrior:
        return LambdaPrior(self.lambda_hat, self.lambda_eps)


@dataclass
class ChainState:
    """One point of the augmented-posterior chain: the field (f-values at
    the coalescent events and the latent points), theta and lambda.  Latent
    counts per interval are derived from the field, never stored.  ``counts``
    holds ``[accepted, attempted]`` per kernel, bookkeeping no kernel reads."""

    field: LatentField
    theta: float
    lam: float
    counts: dict = dataclass_field(default_factory=lambda: {k: [0, 0] for k in _TALLIED})

    @classmethod
    def initial(cls, grid: IntervalGrid, kernel: GPKernel, cfg: McmcConfig) -> "ChainState":
        """No latent points, f = 0 at every coalescent event, theta from the
        kernel and lambda at the prior's best guess."""
        coal = grid.coal_event_times
        field = LatentField(coal, np.zeros(len(coal)), np.ones(len(coal), dtype=bool))
        return cls(field=field, theta=kernel.theta, lam=cfg.lambda_hat)


@dataclass
class ChainDraw:
    iteration: int
    theta: float
    lam: float
    field: LatentField
    log_posterior: float

    def to_json(self) -> dict:
        """JSON record of the draw; the field arrays go as base64 of their
        little-endian bytes (float64 times and values, uint8 is_coal)."""
        return {
            "iteration": self.iteration,
            "theta": self.theta,
            "lambda": self.lam,
            "n_latent": int(np.sum(~self.field.is_coal)),
            "times": _encode_array(self.field.times, _F8),
            "values": _encode_array(self.field.values, _F8),
            "is_coal": _encode_array(self.field.is_coal, _U1),
            "log_posterior": self.log_posterior,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChainDraw":
        """Draw from its JSON record.  Each field array may be a base64 string
        or a list of numbers, the layout chain files had before; a value out of
        range in either raises ValidationError."""
        require_keys(obj, _DRAW_KEYS, "chain draw")
        try:
            iteration, log_posterior = int(obj["iteration"]), float(obj["log_posterior"])
            theta, lam = float(obj["theta"]), float(obj["lambda"])
            times = _decode_array(obj["times"], _F8, "times")
            values = _decode_array(obj["values"], _F8, "values")
            is_coal = _decode_array(obj["is_coal"], _U1, "is_coal")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"chain draw holds a malformed value: {exc}") from None
        for key, value in (("theta", theta), ("lambda", lam)):
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"chain draw key {key!r} must be finite and positive, not {value!r}")
        if not (times.ndim == 1 and times.shape == values.shape == is_coal.shape):
            raise ValidationError("chain draw keys 'times', 'values' and 'is_coal' must be arrays of one length")
        if not np.all(np.isfinite(times) & (times > 0)):
            raise ValidationError("chain draw key 'times' must be finite and positive")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("chain draw key 'times' must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValidationError("chain draw key 'values' must be finite")
        if not np.all((is_coal == 0) | (is_coal == 1)):
            raise ValidationError("chain draw key 'is_coal' must hold only 0 and 1")
        if not np.any(is_coal):
            raise ValidationError("chain draw holds no coalescent point")
        return cls(iteration, theta, lam, LatentField(times, values, is_coal), log_posterior)


_F8, _U1 = np.dtype("<f8"), np.dtype("u1")


def _encode_array(a: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(np.asarray(a, dtype=dtype).tobytes()).decode("ascii")


def _decode_array(value, dtype: np.dtype, key: str) -> np.ndarray:
    """A draw's field array from base64 of ``dtype`` bytes or from a list of
    numbers (an is_coal list is read as 0/1 values)."""
    if not isinstance(value, str):
        return np.asarray(value, dtype=float)
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValidationError(f"chain draw key {key!r} is not base64: {exc}") from None
    if len(raw) % dtype.itemsize:
        raise ValidationError(
            f"chain draw key {key!r} holds {len(raw)} bytes, not whole {dtype.itemsize}-byte items"
        )
    return np.frombuffer(raw, dtype=dtype)


@dataclass
class ChainOutput:
    draws: list
    acceptance: dict
    config: McmcConfig
    kernel: GPKernel

    def write_jsonl(self, fh):
        header = {
            "type": "header",
            "config": asdict(self.config),
            "kernel": kernel_to_json(self.kernel),
            "acceptance": self.acceptance,
            "n_draws": len(self.draws),
        }
        fh.write(json.dumps(header) + "\n")
        for d in self.draws:
            fh.write(json.dumps(d.to_json()) + "\n")

    @classmethod
    def read_jsonl(cls, fh) -> "ChainOutput":
        """Read a chain file: an optional ``meta`` line, the header, one draw
        per line.  Malformed content raises ValidationError."""
        records = (_json_record(line, n) for n, line in enumerate(fh, start=1) if line.strip())
        header = next(records, {})
        if header.get("type") == "meta":
            header = next(records, {})
        if header.get("type") != "header":
            raise ValidationError("chain file does not start with a header line")
        require_keys(header, ("config", "kernel"), "chain header")
        try:
            config = McmcConfig(**require_keys(header["config"], (), "chain header config"))
            kernel = kernel_from_json(header["kernel"])
        except (TypeError, ValueError) as exc:  # unknown or mistyped settings, bad config values
            raise ValidationError(f"chain header holds a malformed setting: {exc}") from None
        return cls(
            draws=[ChainDraw.from_json(obj) for obj in records],
            acceptance=header.get("acceptance", {}),
            config=config,
            kernel=kernel,
        )


_DRAW_KEYS = ("iteration", "theta", "lambda", "times", "values", "is_coal", "log_posterior")


def _json_record(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"chain file line {lineno} is not JSON: {exc}") from None
    return require_keys(obj, (), f"chain file line {lineno}")


def rj_log_accept_add(length, lam, factor, m, f_star):
    """Log acceptance ratio for inserting a latent point into an interval
    currently holding m of them (elementwise over arrays)."""
    with np.errstate(divide="ignore"):
        return np.log(length * lam * factor) - np.log(m + 1) - np.logaddexp(0.0, f_star)


def rj_log_accept_remove(length, lam, factor, m, f_removed):
    """Log acceptance ratio for deleting one of the m latent points of an
    interval; exact inverse of the matching insertion (elementwise)."""
    with np.errstate(divide="ignore"):
        return np.log(m) + np.logaddexp(0.0, f_removed) - np.log(length * lam * factor)


def _accept(log_a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Metropolis accept flags, one uniform per ratio; a NaN ratio rejects."""
    with np.errstate(divide="ignore"):
        return np.log(rng.random(len(log_a))) < log_a


def rj_update(state: ChainState, grid: IntervalGrid, kernel: GPKernel, rng: np.random.Generator):
    """One add-or-remove proposal per live interval, block-parallel.

    Each pass of ``grid.rj_passes`` makes the proposals of its intervals at
    once, as array operations on the field as it stood before the pass, and
    applies the accepted ones in one splice (the module docstring says why
    blocks may move together).  Insertions draw the location uniformly and
    its f-value from the GP conditional given the bracketing field points;
    removals pick uniformly among the interval's latent points, which are
    contiguous in the field.  A location that collides with a field time,
    and a removal from an empty interval, are automatic rejects; the
    state's attempt tally includes them.
    """
    kern = kernel.with_theta(state.theta)
    for js in grid.rj_passes:
        _rj_pass(state, grid, kern, rng, js)


def _rj_pass(state, grid, kern, rng, js):
    field = state.field
    first, count = grid.latent_slices(field.times)
    is_add = rng.random(len(js)) < 0.5
    add, rem = js[is_add], js[~is_add]
    state.counts["rj_add"][1] += len(add)
    state.counts["rj_remove"][1] += len(rem)

    x = rng.uniform(grid.starts[add], grid.ends[add])
    pos = np.searchsorted(field.times, x)
    # a location on a field time, or on the interval's open start, is rejected
    on_point = (pos < field.size) & (field.times[np.minimum(pos, field.size - 1)] == x)
    fresh = ~on_point & (x > grid.starts[add])
    add, x, pos = add[fresh], x[fresh], pos[fresh]
    f_star = predictive_grid_draw(field, x, kern, rng)
    took_add = _accept(
        rj_log_accept_add(grid.lengths[add], state.lam, grid.coal_factor[add], count[add], f_star),
        rng,
    )

    rem = rem[count[rem] > 0]
    m = count[rem]
    pick = first[rem] + rng.integers(0, m)
    took_rem = _accept(
        rj_log_accept_remove(grid.lengths[rem], state.lam, grid.coal_factor[rem], m, field.values[pick]),
        rng,
    )

    state.counts["rj_add"][0] += int(took_add.sum())
    state.counts["rj_remove"][0] += int(took_rem.sum())
    if took_add.any() or took_rem.any():
        field.splice(pick[took_rem], pos[took_add], x[took_add], f_star[took_add])


def location_update(state: ChainState, grid: IntervalGrid, kernel: GPKernel, rng: np.random.Generator):
    """Move one latent point within its interval (no-op when none exist).

    The interval is chosen among those holding latent points with probability
    proportional to its length; the new location is uniform and its f-value
    comes from the GP conditional given the current field, giving the
    sigmoid-ratio acceptance probability.
    """
    field = state.field
    first, count = grid.latent_slices(field.times)
    eligible = np.flatnonzero(count > 0)
    if len(eligible) == 0:
        return
    kern = kernel.with_theta(state.theta)
    weights = grid.lengths[eligible]
    j = int(eligible[rng.choice(len(eligible), p=weights / weights.sum())])
    state.counts["location"][1] += 1
    pick = int(first[j] + rng.integers(count[j]))  # the interval's latent points are contiguous
    x_new = rng.uniform(grid.starts[j], grid.ends[j])
    pos = int(np.searchsorted(field.times, x_new))
    if pos < field.size and field.times[pos] == x_new:
        return
    f_new = conditional_draw_at(field, x_new, kern, rng)
    log_a = float(np.logaddexp(0.0, field.values[pick]) - np.logaddexp(0.0, f_new))
    if math.log(rng.random()) < log_a:
        field.remove(pick)
        field.insert(x_new, f_new)
        state.counts["location"][0] += 1


def elliptical_slice_step(f, nu, loglik, rng: np.random.Generator):
    """One elliptical slice transition for any log-likelihood.

    Rotates the current point toward the auxiliary prior draw ``nu`` and
    shrinks the angle bracket until the rotated point clears the slice
    threshold; terminates with probability one for continuous positive
    likelihoods.
    """
    log_y = loglik(f) + math.log(rng.random())
    ang = rng.uniform(0.0, _TWO_PI)
    lo, hi = ang - _TWO_PI, ang
    for _ in range(_MAX_SLICE_SHRINKS):
        proposal = f * math.cos(ang) + nu * math.sin(ang)
        if loglik(proposal) > log_y:
            return proposal
        if ang < 0.0:
            lo = ang
        else:
            hi = ang
        ang = rng.uniform(lo, hi)
    raise McmcError("elliptical slice sampler failed to terminate")


def ess_update(state: ChainState, prior: TridiagPrecision, rng: np.random.Generator):
    """One elliptical slice transition on the full f-vector."""
    field = state.field
    if field.size == 0:
        return
    nu = prior.scaled(state.theta).sample_zero_mean(rng)
    signs = np.where(field.is_coal, 1.0, -1.0)
    loglik = lambda v: float(np.sum(log_sigmoid(signs * v)))  # noqa: E731
    field.values = elliptical_slice_step(field.values, nu, loglik, rng)
    state.counts["ess"][0] += 1
    state.counts["ess"][1] += 1


def theta_full_conditional(field: LatentField, prior: TridiagPrecision, alpha: float, beta: float):
    """Shape and rate of the Gamma full conditional of the GP precision."""
    return alpha + 0.5 * field.size, beta + 0.5 * prior.quad_form(field.values)


def gibbs_theta(
    state: ChainState,
    prior: TridiagPrecision,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
):
    """Exact Gamma draw of the precision given f (conjugate full conditional)."""
    shape, rate = theta_full_conditional(state.field, prior, alpha, beta)
    if not math.isfinite(rate) or rate <= 0:
        raise McmcError(f"theta full conditional has rate {rate}")
    theta = float(rng.gamma(shape, 1.0 / rate))
    if not (math.isfinite(theta) and theta > 0):
        raise McmcError(f"theta draw {theta} is not finite and positive")
    state.theta = theta


def lambda_log_ratio(
    lam: float,
    prop: float,
    n_points: int,
    total_hazard_weight: float,
    prior: LambdaPrior,
) -> float:
    """Log Metropolis ratio for the bound update: prior ratio, the point-count
    power of the bound, and the exposure term over all intervals."""
    log_ratio = lambda_log_prior(prop, prior) - lambda_log_prior(lam, prior)
    log_ratio += n_points * (math.log(prop) - math.log(lam))
    log_ratio -= (prop - lam) * total_hazard_weight
    return log_ratio


def mh_lambda(
    state: ChainState,
    prior: LambdaPrior,
    halfwidth: float,
    hazard_weight: float,
    rng: np.random.Generator,
):
    """Reflected-uniform Metropolis step on the thinning bound lambda, given
    the grid's total hazard weight (sum of interval length times pair count)."""
    state.counts["lambda"][1] += 1
    prop = state.lam + rng.uniform(-halfwidth, halfwidth)
    if prop < 0:
        prop = -prop
    if prop <= 0:
        return
    log_ratio = lambda_log_ratio(state.lam, prop, state.field.size, hazard_weight, prior)
    if math.isfinite(log_ratio) and math.log(rng.random()) < log_ratio:
        state.lam = float(prop)
        state.counts["lambda"][0] += 1


def mcmc_sweep(
    state: ChainState,
    grid: IntervalGrid,
    kernel: GPKernel,
    cfg: McmcConfig,
    rng: np.random.Generator,
) -> TridiagPrecision:
    """One full iteration: RJ sweep(s), relocations, slice, theta, lambda.
    Returns the theta-free prior the sweep built, for the log posterior."""
    for _ in range(cfg.rj_sweeps):
        rj_update(state, grid, kernel, rng)
    for _ in range(cfg.location_moves):
        location_update(state, grid, kernel, rng)
    prior = kernel.structure_tridiag(state.field.times)
    ess_update(state, prior, rng)
    gibbs_theta(state, prior, cfg.theta_alpha, cfg.theta_beta, rng)
    mh_lambda(state, cfg.lambda_prior, cfg.halfwidth, grid.total_hazard_weight, rng)
    return prior


def gamma_log_pdf(x: float, alpha: float, beta: float) -> float:
    if x <= 0:
        return -math.inf
    return alpha * math.log(beta) - math.lgamma(alpha) + (alpha - 1.0) * math.log(x) - beta * x


def log_augmented_posterior(
    state: ChainState, grid: IntervalGrid, prior: TridiagPrecision, cfg: McmcConfig
) -> float:
    lp = prior.scaled(state.theta).log_density(state.field.values)
    lp += gamma_log_pdf(state.theta, cfg.theta_alpha, cfg.theta_beta)
    lp += lambda_log_prior(state.lam, cfg.lambda_prior)
    return lp + log_augmented_likelihood(state.field, grid, state.lam)


def _state_dump(state: ChainState, iteration: int) -> dict:
    vals = state.field.values
    return {
        "iteration": iteration,
        "theta": state.theta,
        "lambda": state.lam,
        "field_size": state.field.size,
        "n_latent": int(np.sum(~state.field.is_coal)),
        "f_min": float(vals.min()) if len(vals) else None,
        "f_max": float(vals.max()) if len(vals) else None,
    }


def run_chain(
    data: CoalescentData,
    cfg: McmcConfig,
    kernel: GPKernel,
    progress=None,
) -> ChainOutput:
    """Run the augmented-posterior sampler and return the retained draws.

    Each iteration is one :func:`mcmc_sweep` followed by the log posterior,
    which is stored with each retained post-burn-in draw.  A non-finite log
    posterior, or an EvaluationError, McmcError or arithmetic error (an
    overflow) inside the iteration, aborts with an McmcError whose state dump
    names the iteration.  ``progress`` is an
    optional callable invoked as progress(iteration, total, acceptance_dict)
    every ~5% of the run.
    """
    grid = build_interval_grid(data)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    state = ChainState.initial(grid, kernel, cfg)
    draws: list[ChainDraw] = []
    report_every = max(1, cfg.iterations // 20)
    for it in range(cfg.iterations):
        try:
            with np.errstate(over="raise"):  # an overflow aborts as a FloatingPointError
                prior = mcmc_sweep(state, grid, kernel, cfg, rng)
                lp = log_augmented_posterior(state, grid, prior, cfg)
        except (EvaluationError, McmcError, ArithmeticError) as exc:
            raise McmcError(f"{exc} at iteration {it}", _state_dump(state, it)) from exc
        if not math.isfinite(lp):
            raise McmcError(f"non-finite log posterior at iteration {it}", _state_dump(state, it))
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            draws.append(
                ChainDraw(
                    iteration=it,
                    theta=state.theta,
                    lam=state.lam,
                    field=LatentField(state.field.times, state.field.values, state.field.is_coal),
                    log_posterior=lp,
                )
            )
        if progress is not None and (it + 1) % report_every == 0:
            progress(it + 1, cfg.iterations, acceptance_rates(state.counts))
    return ChainOutput(
        draws=draws,
        acceptance=acceptance_rates(state.counts),
        config=cfg,
        kernel=kernel,
    )


def acceptance_rates(counts: dict) -> dict:
    return {k: (v[0] / v[1] if v[1] else 0.0) for k, v in counts.items()}
