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
sampling time.  A candidate accepted beyond the next sampling time is never a
coalescent event; rejected candidates beyond it are discarded without being
recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, SimulationError
from .gp_prior import GPKernel, LatentField
from .trajectories import Trajectory

DEFAULT_PROPOSAL_CAP = 10_000_000


def _sigmoid(x: float) -> float:
    """Scalar logistic function, with no overflow on either side."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class DeterministicSpec:
    """A deterministic trajectory plus its thinning envelope.

    ``lam``: certified global bound on 1/N_e; when None, a piecewise-constant
    envelope is built from ``traj.sup_inv_ne`` over windows of width
    ``window`` (default: the trajectory's own choice).
    """

    traj: Trajectory
    lam: float | None = None
    window: float | None = None

    def resolved_window(self) -> float:
        if self.lam is not None:
            return math.inf
        w = self.window if self.window is not None else self.traj.default_window()
        if w is None or w <= 0:
            raise EvaluationError(
                "trajectory provides no local bound; pass a certified lam or a window"
            )
        return w


@dataclass
class SimulationRecord:
    """Output of one simulation run.

    ``latent_by_interval`` groups thinned candidate times by the coalescent
    event that closed them (ascending); empty for runs that do not record
    rejections.  ``field`` holds f-values at coalescent and latent times for
    GP runs, None otherwise.
    """

    samp_times: np.ndarray
    samp_counts: np.ndarray
    coal_times: np.ndarray
    latent_by_interval: list = field(default_factory=list)
    gp_field: LatentField | None = None
    n_proposals: int = 0

    @property
    def latent_times(self) -> np.ndarray:
        if not self.latent_by_interval:
            return np.zeros(0)
        return np.concatenate([np.asarray(g, dtype=float) for g in self.latent_by_interval])

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

    @classmethod
    def from_json(cls, obj: dict) -> "SimulationRecord":
        gp_field = None
        if "f_times" in obj:
            gp_field = LatentField(obj["f_times"], obj["f_values"], obj["f_is_coal"])
        return cls(
            samp_times=np.asarray(obj["samp_times"], dtype=float),
            samp_counts=np.asarray(obj["samp_counts"], dtype=int),
            coal_times=np.asarray(obj["coal_times"], dtype=float),
            latent_by_interval=[np.asarray(g, dtype=float) for g in obj["latent_by_interval"]],
            gp_field=gp_field,
            n_proposals=int(obj.get("n_proposals", 0)),
        )

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")


def _check_schedule(samp_times, samp_counts):
    st = np.asarray(samp_times, dtype=float)
    sc = np.asarray(samp_counts, dtype=int)
    if len(st) == 0 or st[0] != 0.0 or np.any(np.diff(st) <= 0):
        raise EvaluationError("sampling times must be strictly increasing and start at 0")
    if np.any(sc < 1) or sc.sum() < 2:
        raise EvaluationError("sample counts must be positive and total at least 2")
    return st, sc


def simulate_hetero_thinning(
    samp_times,
    samp_counts,
    spec: DeterministicSpec,
    rng: np.random.Generator,
    record_latent: bool = False,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> SimulationRecord:
    """Thinning simulation of serially sampled coalescent times.

    Candidates are proposed from an exponential clock at the dominating level
    times the pair count, capped at the next sampling time and at the
    envelope window; acceptance probability is 1/(N_e * bound).
    """
    st, sc = _check_schedule(samp_times, samp_counts)
    traj = spec.traj
    window = spec.resolved_window()
    m = len(st)
    i = 0
    t = 0.0
    active = int(sc[0])
    events_left = int(sc.sum()) - 1
    coal: list[float] = []
    groups: list[np.ndarray] = []
    current: list[float] = []
    n_proposals = 0
    proposals_this_event = 0
    while events_left > 0:
        if active < 2:
            if i + 1 >= m:
                raise SimulationError("single lineage left with no further samples")
            i += 1
            t = float(st[i])
            active += int(sc[i])
            continue
        pairs = active * (active - 1) / 2.0
        boundary = float(st[i + 1]) if i + 1 < m else math.inf
        wend = min(t + window, boundary)
        lam_loc = spec.lam if spec.lam is not None else float(traj.sup_inv_ne(t, wend))
        if not math.isfinite(lam_loc) or lam_loc <= 0:
            raise EvaluationError(
                f"dominating level {lam_loc} on [{t}, {wend}] is unusable; "
                "shrink the window or supply a certified lam"
            )
        proposals_this_event += 1
        if proposals_this_event > proposal_cap:
            raise SimulationError(
                f"proposal cap {proposal_cap} exceeded within one coalescent "
                "interval; the bound is far above 1/N_e or the hazard integral converges"
            )
        gap = rng.exponential(1.0 / (pairs * lam_loc))
        if t + gap > wend:
            t = wend
            if wend == boundary and i + 1 < m:
                i += 1
                active += int(sc[i])
            continue
        t = t + gap
        n_proposals += 1
        u = rng.random()
        ratio = float(traj.inv_ne(t)) / lam_loc
        if ratio > 1.0 + 1e-9:
            raise SimulationError(
                f"certified bound violated: 1/N_e(t)={ratio * lam_loc:.6g} exceeds "
                f"the dominating level {lam_loc:.6g} at t={t:.6g}"
            )
        if u <= ratio:
            coal.append(t)
            groups.append(np.asarray(current, dtype=float))
            current = []
            active -= 1
            events_left -= 1
            proposals_this_event = 0
        elif record_latent:
            current.append(t)
    return SimulationRecord(
        samp_times=st,
        samp_counts=sc,
        coal_times=np.asarray(coal),
        latent_by_interval=groups if record_latent else [],
        n_proposals=n_proposals,
    )


def simulate_iso_thinning(
    n: int,
    spec: DeterministicSpec,
    rng: np.random.Generator,
    record_latent: bool = False,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> SimulationRecord:
    """Isochronous thinning: all n samples at time 0."""
    return simulate_hetero_thinning(
        [0.0], [n], spec, rng, record_latent=record_latent, proposal_cap=proposal_cap
    )


def simulate_hetero_thinning_gp(
    samp_times,
    samp_counts,
    kernel: GPKernel,
    lam: float,
    rng: np.random.Generator,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> SimulationRecord:
    """Thinning simulation under the sigmoidal-GP population size.

    Each candidate draws its f-value from the GP conditional on all retained
    points and is accepted with probability sigmoid(f).  Rejected candidates
    before the next sampling time are retained as latent points; candidates
    beyond it are discarded (accepted ones reset the clock to that sampling
    time), so the record is one exact draw of the augmented model.
    """
    st, sc = _check_schedule(samp_times, samp_counts)
    if lam <= 0:
        raise EvaluationError("lam must be positive")
    m = len(st)
    i = 0
    t = 0.0
    active = int(sc[0])
    events_left = int(sc.sum()) - 1
    coal: list[float] = []
    groups: list[np.ndarray] = []
    current: list[float] = []
    f_times: list[float] = []
    f_values: list[float] = []
    f_is_coal: list[bool] = []
    n_proposals = 0
    proposals_this_event = 0
    while events_left > 0:
        if active < 2:
            if i + 1 >= m:
                raise SimulationError("single lineage left with no further samples")
            i += 1
            t = float(st[i])
            active += int(sc[i])
            continue
        pairs = active * (active - 1) / 2.0
        boundary = float(st[i + 1]) if i + 1 < m else math.inf
        proposals_this_event += 1
        if proposals_this_event > proposal_cap:
            raise SimulationError(
                f"proposal cap {proposal_cap} exceeded; the GP has drifted far "
                "negative and acceptances have effectively stopped"
            )
        gap = rng.exponential(1.0 / (pairs * lam))
        u = rng.random()
        tprop = t + gap
        n_proposals += 1
        left = (f_times[-1], f_values[-1]) if f_times else None
        mean, var = kernel.cond_moments(tprop, left, None)
        fval = mean + math.sqrt(var) * rng.standard_normal()
        if u <= _sigmoid(fval):
            if tprop < boundary:
                f_times.append(tprop)
                f_values.append(fval)
                f_is_coal.append(True)
                coal.append(tprop)
                groups.append(np.asarray(current, dtype=float))
                current = []
                active -= 1
                events_left -= 1
                proposals_this_event = 0
                t = tprop
            else:
                i += 1
                t = float(st[i])
                active += int(sc[i])
        else:
            if tprop < boundary:
                f_times.append(tprop)
                f_values.append(fval)
                f_is_coal.append(False)
                current.append(tprop)
            t = tprop
    return SimulationRecord(
        samp_times=st,
        samp_counts=sc,
        coal_times=np.asarray(coal),
        latent_by_interval=groups,
        gp_field=LatentField(f_times, f_values, f_is_coal),
        n_proposals=n_proposals,
    )


def simulate_iso_thinning_gp(
    n: int,
    kernel: GPKernel,
    lam: float,
    rng: np.random.Generator,
    proposal_cap: int = DEFAULT_PROPOSAL_CAP,
) -> SimulationRecord:
    """Isochronous GP thinning: all n samples at time 0."""
    return simulate_hetero_thinning_gp([0.0], [n], kernel, lam, rng, proposal_cap=proposal_cap)


def simulate_time_transform(
    traj: Trajectory,
    rng: np.random.Generator,
    n: int | None = None,
    samp_times=None,
    samp_counts=None,
) -> np.ndarray:
    """Exact simulation by inverting the cumulative hazard (the oracle).

    One unit exponential per coalescent event is traced through the piecewise
    intensity: epochs between sampling times consume their integrated hazard,
    the remainder is inverted analytically or by monotone bracketing.
    """
    if n is not None:
        samp_times, samp_counts = [0.0], [n]
    st, sc = _check_schedule(samp_times, samp_counts)
    m = len(st)
    i = 0
    t = 0.0
    active = int(sc[0])
    events_left = int(sc.sum()) - 1
    out: list[float] = []
    while events_left > 0:
        if active < 2:
            if i + 1 >= m:
                raise SimulationError("single lineage left with no further samples")
            i += 1
            t = float(st[i])
            active += int(sc[i])
            continue
        e = rng.exponential(1.0)
        while True:
            pairs = active * (active - 1) / 2.0
            boundary = float(st[i + 1]) if i + 1 < m else None
            if boundary is not None:
                chunk = pairs * traj.inv_ne_integral(t, boundary)
                if chunk < e:
                    e -= chunk
                    i += 1
                    t = boundary
                    active += int(sc[i])
                    continue
            t = float(traj.solve_inv_ne_integral(t, e / pairs))
            out.append(t)
            active -= 1
            events_left -= 1
            break
    return np.asarray(out)


def time_transform_replicates(
    n: int, traj: Trajectory, replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """Matrix of isochronous oracle draws, shape (replicates, n - 1).

    Vectorized across replicates when the trajectory's hazard inversion
    accepts arrays; falls back to elementwise inversion otherwise.
    """
    t = np.zeros(replicates)
    out = np.empty((replicates, n - 1))
    for j, k in enumerate(range(n, 1, -1)):
        pairs = k * (k - 1) / 2.0
        e = rng.exponential(size=replicates) / pairs
        try:
            t = np.asarray(traj.solve_inv_ne_integral(t, e), dtype=float)
            if t.shape != (replicates,):
                raise TypeError
        except (TypeError, ValueError):
            t = np.array(
                [traj.solve_inv_ne_integral(float(a), float(b)) for a, b in zip(t, e)]
            )
        out[:, j] = t
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
