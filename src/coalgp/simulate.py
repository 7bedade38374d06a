"""Coalescent-time simulation: thinning samplers and the time-transform oracle.

The thinning samplers propose candidate event times from a dominating
exponential clock and accept each candidate with the ratio of the true to the
dominating intensity.  For deterministic trajectories the dominating level is
either a user-certified constant bound or a piecewise-constant envelope built
from local suprema of 1/N_e over a lookahead window (needed whenever 1/N_e is
unbounded, e.g. exponential growth).  For GP trajectories the bound ``lam``
is exact by construction of the sigmoidal link, the function value at each
candidate is drawn from the GP conditional on everything retained so far, and
rejected candidates are kept as latent points: the output is one exact draw
from the augmented model the sampler in :mod:`coalgp.mcmc` targets.

Serial sampling is handled by restarting the dominating clock at each
sampling time.  A candidate that passes the next sampling time is never a
coalescent event and is not recorded; the replicate moves on to that
sampling time.

Every sampler walks a batch of replicates in lockstep: the replicate is the
array axis, and each round moves every live replicate by one candidate (the
oracle: by one event or one epoch).  The thinners take a list of Generators
and return one record per Generator, each replicate drawing only from its own
Generator in blocks of ``BLOCK`` rounds, so its record does not depend on
which other replicates share its batch.  The oracle takes one Generator for
the whole matrix.

Runaways end in SimulationError.  The GP thinner's bound counts candidate
rounds per coalescent interval (``MAX_INTERVAL_ROUNDS``), so it does not grow
with the number of tips.  A certified level over a 1/N_e that is 0 from the
current time on raises EvaluationError, as a dominating level of 0 does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, SimulationError, ValidationError
from .genealogy import check_schedule, coalescent_factor
from .gp_prior import GPKernel, LatentField
from .likelihood import sigmoid
from .trajectories import Trajectory

DEFAULT_PROPOSAL_CAP = 10_000_000
BLOCK = 32  # rounds of unit draws a replicate takes from its Generator at a time
# Empty envelope windows in a row after which a replicate whose windows held,
# on average, under 1/proposal_cap expected candidates is starved: at that
# rate it would spend the whole cap before its next candidate.
MAX_EMPTY_WINDOWS = 20_000
# Candidate rounds one GP thinner replicate may take in one coalescent
# interval.  A replicate whose f sinks far below 0 accepts almost nothing and
# would keep every candidate until memory runs out.
MAX_INTERVAL_ROUNDS = 100_000


@dataclass(frozen=True)
class DeterministicSpec:
    """A deterministic trajectory plus its thinning envelope.

    ``lam``: certified global bound on 1/N_e, finite and positive; when None,
    a piecewise-constant envelope is built from ``traj.sup_inv_ne`` over
    windows of width ``window`` (default: the trajectory's own choice).
    """

    traj: Trajectory
    lam: float | None = None
    window: float | None = None

    def __post_init__(self):
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam > 0):
            raise ValidationError(f"lam must be finite and positive, got {self.lam}")

    def resolved_window(self) -> float:
        if self.lam is not None:
            return math.inf
        w = self.window if self.window is not None else self.traj.default_window()
        if not w > 0:
            raise ValidationError(f"the envelope window must be positive, got {w}")
        return w


@dataclass
class SimulationRecord:
    """Output of one simulation run.

    ``latent_by_interval`` groups thinned candidate times by the coalescent
    event that closed them (ascending); empty for runs that do not record
    rejections.  ``gp_field`` holds f-values at coalescent and latent times for
    GP runs, None otherwise.
    """

    samp_times: np.ndarray
    samp_counts: np.ndarray
    coal_times: np.ndarray
    latent_by_interval: list = field(default_factory=list)
    gp_field: LatentField | None = None
    n_proposals: int = 0

    def to_json(self) -> dict:
        out = {
            "samp_times": np.asarray(self.samp_times).tolist(),
            "samp_counts": np.asarray(self.samp_counts).tolist(),
            "coal_times": np.asarray(self.coal_times).tolist(),
            "latent_by_interval": [np.asarray(g).tolist() for g in self.latent_by_interval],
            "n_proposals": int(self.n_proposals),
        }
        if self.gp_field is not None:
            out["f_times"] = self.gp_field.times.tolist()
            out["f_values"] = self.gp_field.values.tolist()
            out["f_is_coal"] = self.gp_field.is_coal.tolist()
        return out


class _Walk:
    """Lockstep state of a batch of replicates on one sampling schedule.

    The arrays hold the live replicates only: batch index ``ids``, time,
    epoch, active lineages, events done, candidate rounds since the last
    event, and the length and expected candidate count of the current run of
    empty envelope windows.  ``compact`` drops the finished.
    """

    def __init__(self, samp_times, samp_counts, reps: int, proposal_cap: int = DEFAULT_PROPOSAL_CAP):
        self.st, self.sc = check_schedule(samp_times, samp_counts)
        self.next_time = np.append(self.st[1:], math.inf)
        self.n_events = int(self.sc.sum()) - 1
        self.cap = proposal_cap
        self.ids = np.arange(reps)
        self.t = np.zeros(reps)
        self.epoch = np.zeros(reps, dtype=int)
        self.active = np.full(reps, self.sc[0])
        self.done = np.zeros(reps, dtype=int)
        self.rounds = np.zeros(reps, dtype=int)
        self.empty = np.zeros(reps, dtype=int)
        self.mass = np.zeros(reps)

    def boundary(self) -> np.ndarray:
        """Each replicate's next sampling time (inf in the last epoch)."""
        return self.next_time[self.epoch]

    def advance(self, mask):
        """Move the replicates in ``mask`` to their next sampling time."""
        if not mask.any():
            return
        epoch = self.epoch[mask] + 1
        self.epoch[mask] = epoch
        self.t[mask] = self.st[epoch]
        self.active[mask] += self.sc[epoch]

    def pairs(self) -> np.ndarray:
        """Pair counts after every replicate with fewer than 2 lineages has
        moved on to the sampling time that brings more."""
        low = self.active < 2
        while low.any():
            self.advance(low)
            low = self.active < 2
        return coalescent_factor(self.active)

    def step(self, e, pairs, level, horizon) -> np.ndarray:
        """One candidate round: the candidate of each live replicate lies
        ``e / (pairs * level)`` after its time.  A candidate past its horizon
        (an infinite one included) is dropped and the replicate moves to the
        horizon, and on to the next epoch when the horizon is its sampling
        boundary.  A kept candidate that is not finite and later than its time
        means a clock rate outside float range.  Every round counts against
        the proposal cap until the replicate's next coalescent event.  A run
        of more than ``MAX_EMPTY_WINDOWS`` empty windows short of the boundary
        whose expected candidate count is below one per ``cap`` windows means
        the window starves the walk.  Returns the mask of candidates kept."""
        self.rounds += 1
        if self.rounds.max() > self.cap:
            raise SimulationError(
                f"proposal cap {self.cap} exceeded: a replicate took more than {self.cap} "
                "candidate rounds without a coalescent event"
            )
        with np.errstate(over="ignore"):
            rate = pairs * level
            t = self.t + e / rate
        over = t > horizon
        stuck = ~over & ~((t > self.t) & np.isfinite(t))
        if stuck.any():
            j = int(np.argmax(stuck))
            raise SimulationError(
                f"the thinning clock rate {rate[j]:.6g} is outside float range: "
                f"its candidate after t={self.t[j]:.6g} is {t[j]:.6g}"
            )
        boundary = self.boundary()
        empty = over & (horizon < boundary)
        self.empty = np.where(empty, self.empty + 1, 0)
        self.mass = np.where(empty, self.mass + rate * (horizon - self.t), 0.0)
        starved = (self.empty > MAX_EMPTY_WINDOWS) & (self.mass * self.cap < self.empty)
        if starved.any():
            j = int(np.argmax(starved))
            raise SimulationError(
                f"replicate {self.ids[j]} crossed {self.empty[j]} envelope windows in a row without a "
                f"candidate, up to t={horizon[j]:.6g}, at {self.mass[j] / self.empty[j]:.3g} expected "
                f"candidates a window: the window is too small to reach one within {self.cap} rounds"
            )
        self.t = np.where(over, horizon, t)
        self.advance(over & (horizon == boundary))
        return ~over

    def coalesce(self, mask):
        self.active -= mask
        self.done += mask
        self.rounds[mask] = 0

    def compact(self, *extra):
        """Drop finished replicates from the state and from ``extra``."""
        keep = self.done < self.n_events
        if not keep.all():
            for name in ("ids", "t", "epoch", "active", "done", "rounds", "empty", "mass"):
                setattr(self, name, getattr(self, name)[keep])
            extra = tuple(a[keep] for a in extra)
        return extra

    def record(self, **fields) -> SimulationRecord:
        """A replicate's record on this walk's sampling schedule."""
        return SimulationRecord(samp_times=self.st, samp_counts=self.sc, **fields)


class _Draws:
    """Per-replicate blocks of unit draws, one row per replicate.

    Every live replicate takes one column per round, so all share the column
    pointer, and a replicate's refill after each ``BLOCK`` of its own rounds
    reads its own Generator only.
    """

    def __init__(self, rngs: list, kinds: tuple[str, ...]):
        if not rngs:
            raise EvaluationError("a batch needs at least one Generator")
        self.rngs, self.kinds = rngs, kinds
        self.blocks = [np.empty((len(rngs), BLOCK)) for _ in kinds]
        self.col = BLOCK

    def next(self, ids: np.ndarray) -> list[np.ndarray]:
        if self.col == BLOCK:
            for r in ids.tolist():
                rng = self.rngs[r]
                for block, kind in zip(self.blocks, self.kinds):
                    getattr(rng, kind)(out=block[r])
            self.col = 0
        col = self.col
        self.col += 1
        return [block[ids, col] for block in self.blocks]


def _runs(reps: int, ids: np.ndarray, *cols) -> list[list[np.ndarray]]:
    """Per-round columns regrouped per replicate, each run in round order."""
    order = np.argsort(ids, kind="stable")
    cuts = np.searchsorted(ids[order], np.arange(1, reps))
    return [np.split(c[order], cuts) for c in cols]


def _by_event(times: np.ndarray, events: np.ndarray, n_events: int) -> list[np.ndarray]:
    """Latent times grouped by the coalescent event that closed them."""
    return np.split(times, np.searchsorted(events, np.arange(1, n_events)))


def simulate_hetero_thinning(
    samp_times,
    samp_counts,
    spec: DeterministicSpec,
    rngs: list,
    record_latent: bool = False,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> list[SimulationRecord]:
    """Thinning simulation of serially sampled coalescent times.

    Candidates are proposed from an exponential clock at the dominating level
    times the pair count, capped at the next sampling time and at the
    envelope window; acceptance probability is 1/(N_e * bound).  Returns one
    record per Generator in ``rngs``.  A window too small for a replicate to
    reach its next candidate within ``proposal_cap`` rounds raises
    SimulationError (see ``_Walk.step``).  A dominating level of 0, or a
    certified level where 1/N_e is 0 on all of [t, inf), raises
    EvaluationError: the remaining lineages never coalesce.
    """
    reps = len(rngs)
    traj = spec.traj
    window = spec.resolved_window()
    walk = _Walk(samp_times, samp_counts, reps, proposal_cap)
    draws = _Draws(rngs, ("standard_exponential", "random"))
    coal = np.empty((reps, walk.n_events))
    n_proposals = np.zeros(reps, dtype=int)
    latent = []  # per round, rows replicate, time, event index of the rejections
    while len(walk.ids):
        pairs = walk.pairs()
        e, u = draws.next(walk.ids)
        boundary = walk.boundary()
        wend = np.minimum(walk.t + window, boundary)
        top = traj.sup_inv_ne(walk.t, wend if spec.lam is None else math.inf)  # a certified lam: all of [t, inf)
        lam = top if spec.lam is None else spec.lam
        bad = np.broadcast_to((top == 0) | ~(np.isfinite(lam) & (lam > 0)), wend.shape)
        if bad.any():
            j = int(np.argmax(bad))
            level, top = np.broadcast_to(lam, wend.shape)[j], np.broadcast_to(top, wend.shape)[j]
            why = ("1/N_e vanished there, so the remaining lineages never coalesce" if top == 0
                   else "shrink the window or supply a certified lam")
            raise EvaluationError(f"dominating level {level} on [{walk.t[j]}, {wend[j]}] is unusable; {why}")
        inside = walk.step(e, pairs, lam, wend)
        n_proposals[walk.ids] += inside
        ratio = traj.inv_ne(walk.t) / lam
        violated = inside & (ratio > 1.0 + 1e-9)
        if violated.any():
            j = int(np.argmax(violated))
            level = np.broadcast_to(lam, wend.shape)[j]
            raise SimulationError(
                f"certified bound violated: 1/N_e(t)={ratio[j] * level:.6g} exceeds "
                f"the dominating level {level:.6g} at t={walk.t[j]:.6g}"
            )
        accept = inside & (u <= ratio)
        coal[walk.ids[accept], walk.done[accept]] = walk.t[accept]
        if record_latent:
            reject = inside & ~accept
            latent.append(np.stack((walk.ids, walk.t, walk.done))[:, reject])
        walk.coalesce(accept)
        walk.compact()
    groups = [[] for _ in range(reps)]
    if record_latent:
        runs = _runs(reps, *np.concatenate(latent, axis=1))
        groups = [_by_event(lt, le, walk.n_events) for lt, le in zip(*runs)]
    return [
        walk.record(coal_times=coal[r], latent_by_interval=groups[r], n_proposals=int(n_proposals[r]))
        for r in range(reps)
    ]


def simulate_hetero_thinning_gp(
    samp_times,
    samp_counts,
    kernel: GPKernel,
    lam: float,
    rngs: list,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> list[SimulationRecord]:
    """Thinning simulation under the sigmoidal-GP population size.

    Each candidate draws its f-value from the GP conditional on all retained
    points and is accepted with probability sigmoid(f).  Candidates up to the
    next sampling time are retained (accepted ones as coalescent events,
    rejected ones as latent points); the first candidate beyond it is
    discarded and restarts the clock there, so the record is one exact draw
    of the augmented model.  ``n_proposals`` counts the discarded candidates
    too.  Returns one record per Generator in ``rngs``.  A replicate that
    takes more than ``MAX_INTERVAL_ROUNDS`` candidate rounds in one coalescent
    interval raises SimulationError.
    """
    if lam <= 0:
        raise ValidationError("lam must be positive")
    reps = len(rngs)
    walk = _Walk(samp_times, samp_counts, reps, proposal_cap)
    draws = _Draws(rngs, ("standard_exponential", "random", "standard_normal"))
    n_proposals = np.zeros(reps, dtype=int)
    left_t, left_f = np.full(reps, -math.inf), np.zeros(reps)  # last retained point
    kept = []  # per round, rows replicate, time, f-value, accepted, event index
    while len(walk.ids):
        pairs = walk.pairs()
        e, u, z = draws.next(walk.ids)
        n_proposals[walk.ids] += 1
        inside = walk.step(e, pairs, lam, walk.boundary())
        t = walk.t  # a dropped candidate's f is drawn at the next epoch's start and discarded
        rho, v = kernel.innovation(left_t, t)
        f = rho * left_f + np.sqrt(v / kernel.theta) * z
        accept = u <= sigmoid(f)
        kept.append(np.stack((walk.ids, t, f, accept, walk.done))[:, inside])
        if walk.rounds.max() > MAX_INTERVAL_ROUNDS:
            j = int(np.argmax(walk.rounds))
            raise SimulationError(f"replicate {walk.ids[j]} took more than {MAX_INTERVAL_ROUNDS} GP candidate "
                                  f"rounds in one coalescent interval, up to t={walk.t[j]:.6g}")
        left_t, left_f = np.where(inside, t, left_t), np.where(inside, f, left_f)
        event = inside & accept
        walk.coalesce(event)
        left_t, left_f = walk.compact(left_t, left_f)
    ids, times, values, is_coal, events = np.concatenate(kept, axis=1)
    del kept
    runs = _runs(reps, ids, times, values, is_coal.astype(bool), events)
    return [
        walk.record(
            coal_times=ft[fc],
            latent_by_interval=_by_event(ft[~fc], fe[~fc], walk.n_events),
            gp_field=LatentField(ft, fv, fc),
            n_proposals=int(n_proposals[r]),
        )
        for r, (ft, fv, fc, fe) in enumerate(zip(*runs))
    ]


def simulate_time_transform(
    traj: Trajectory, rng: np.random.Generator, samp_times, samp_counts, replicates: int
) -> np.ndarray:
    """Exact simulation by inverting the cumulative hazard (the oracle).

    Returns a (replicates, n - 1) matrix of event times.  One Generator feeds
    the whole matrix: the unit exponentials are drawn one event column (that
    event across all replicates) at a time, in event order, and each row is
    traced through the piecewise intensity.  A round moves every live
    replicate either across its next sampling time, when the epoch's
    integrated hazard is below what is left of the current draw, or to its
    next coalescent event by inverting the remainder in closed form.
    """
    walk = _Walk(samp_times, samp_counts, replicates)
    unit = np.column_stack([rng.exponential(size=replicates) for _ in range(walk.n_events)])
    out = np.empty_like(unit)
    e = unit[:, 0].copy()
    while len(walk.ids):
        pairs = walk.pairs()
        boundary = walk.boundary()
        chunk = np.full(len(e), math.inf)  # hazard left in the epoch, times pairs
        finite = np.isfinite(boundary)
        if finite.any():
            chunk[finite] = pairs[finite] * traj.inv_ne_integral(walk.t[finite], boundary[finite])
        cross = chunk < e
        e[cross] -= chunk[cross]
        walk.advance(cross)
        hit = ~cross
        t = np.asarray(traj.solve_inv_ne_integral(walk.t[hit], e[hit] / pairs[hit]), dtype=float)
        ids, done = walk.ids[hit], walk.done[hit]
        out[ids, done] = t
        walk.t[hit] = t
        walk.coalesce(hit)
        e[hit] = unit[ids, np.minimum(done + 1, walk.n_events - 1)]  # finished rows drop out
        (e,) = walk.compact(e)
    return out


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)|.

    Both empirical CDFs only step at sample points, so the supremum is
    attained on the pooled sample.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_against_oracle(thinned: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """Two-sample KS distance per coalescent index between replicate matrices."""
    thinned = np.atleast_2d(thinned)
    oracle = np.atleast_2d(oracle)
    if thinned.shape[1] != oracle.shape[1]:
        raise EvaluationError("replicate matrices disagree on the number of events")
    return np.array([ks_statistic(thinned[:, j], oracle[:, j]) for j in range(thinned.shape[1])])
