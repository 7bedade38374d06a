"""Thinning simulators against the time-transform oracle and closed forms."""

import json
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, logit

from coalgp.errors import CoalgpError, EvaluationError, SimulationError, ValidationError
from coalgp.genealogy import CoalescentData
from coalgp.gp_prior import BrownianMotionKernel, OrnsteinUhlenbeckKernel
from coalgp.likelihood import sigmoid
from coalgp import simulate
from coalgp.simulate import (
    DeterministicSpec,
    ks_against_oracle,
    ks_statistic,
    simulate_hetero_thinning,
    simulate_hetero_thinning_gp,
    simulate_time_transform,
)
from coalgp.trajectories import BoomBustTrajectory, ConstantTrajectory, ExpGrowthTrajectory


def latent_times(rec):
    """A record's thinned times, all intervals in order."""
    return np.concatenate([np.zeros(0), *(np.asarray(g, dtype=float) for g in rec.latent_by_interval)])


class _FixedExponentials:
    """Stub generator feeding predetermined unit-exponential draws."""

    def __init__(self, values):
        self.values = list(values)

    def exponential(self, scale=1.0, size=None):
        return np.array([self.values.pop(0) for _ in range(size)]) * scale


class TestTimeTransform:
    def test_constant_identity_hazard(self):
        # unit draw 0.5 with N_e = 1 and two samples lands at exactly 0.5
        out = simulate_time_transform(ConstantTrajectory(1.0), _FixedExponentials([0.5]), [0.0], [2], 1)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_expgrowth_closed_form(self):
        out = simulate_time_transform(ExpGrowthTrajectory(25.0, 5.0), _FixedExponentials([1.0]), [0.0], [2], 1)
        assert out[0, 0] == pytest.approx(math.log(126.0) / 5.0, abs=1e-10)

    def test_constant_scaling(self, rng):
        # with N_e = c the root time of a pair is Exponential(1/c)
        c = 3.0
        reps = simulate_time_transform(ConstantTrajectory(c), rng, [0.0], [2], 4000)
        ks = stats.kstest(reps[:, 0], "expon", args=(0.0, c)).statistic
        assert ks < 0.03

    def test_replicates_match_sequential(self):
        rng1 = np.random.default_rng(5)
        reps = simulate_time_transform(BoomBustTrajectory(), rng1, [0.0], [6], 400)
        assert reps.shape == (400, 5)
        assert np.all(np.diff(reps, axis=1) > 0)


class TestIsoThinning:
    def test_tight_bound_accepts_first_proposal(self, rng):
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)
        rec = simulate_hetero_thinning([0.0], [2], spec, [rng])[0]
        assert rec.n_proposals == 1
        assert len(rec.coal_times) == 1

    def test_pair_time_is_unit_exponential(self, rng):
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)
        draws = np.array([simulate_hetero_thinning([0.0], [2], spec, [rng])[0].coal_times[0] for _ in range(4000)])
        assert stats.kstest(draws, "expon").statistic < 0.03

    def test_kingman_interval_rates(self, rng):
        # constant size 1 with a tight bound: gaps are Exponential(binom(k, 2))
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)
        mat = np.array([simulate_hetero_thinning([0.0], [10], spec, [rng])[0].coal_times for _ in range(3000)])
        gaps = np.diff(np.concatenate([np.zeros((3000, 1)), mat], axis=1), axis=1)
        for j, k in enumerate(range(10, 1, -1)):
            rate = k * (k - 1) / 2
            ks = stats.kstest(gaps[:, j], "expon", args=(0.0, 1.0 / rate)).statistic
            assert ks < 0.04, (k, ks)

    def test_loose_bound_same_law(self, rng):
        # an inflated bound changes efficiency, not the law
        tight = DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)
        loose = DeterministicSpec(ConstantTrajectory(1.0), lam=7.0)
        a = np.array([simulate_hetero_thinning([0.0], [6], tight, [rng])[0].coal_times for _ in range(2500)])
        b = np.array([simulate_hetero_thinning([0.0], [6], loose, [rng])[0].coal_times for _ in range(2500)])
        assert np.max(ks_against_oracle(a, b)) < 0.05

    def test_windowed_envelope_matches_oracle(self, rng):
        # exponential growth has unbounded 1/N_e: only the local envelope works
        traj = ExpGrowthTrajectory(25.0, 5.0)
        spec = DeterministicSpec(traj)
        thinned = np.array([simulate_hetero_thinning([0.0], [10], spec, [rng])[0].coal_times for _ in range(2500)])
        oracle = simulate_time_transform(traj, rng, [0.0], [10], 25_000)
        assert np.max(ks_against_oracle(thinned, oracle)) < 0.045

    def test_proposal_cap_raises(self, rng):
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1e6)
        with pytest.raises(SimulationError, match="cap"):
            simulate_hetero_thinning([0.0], [2], spec, [rng], proposal_cap=500)

    def test_bound_violation_detected(self, rng):
        # lam certifies 1/N_e <= 0.5 but the trajectory dips below N_e = 2
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=0.5)
        with pytest.raises(SimulationError, match="bound violated"):
            simulate_hetero_thinning([0.0], [4], spec, [rng])

    def test_latent_points_form_thinned_poisson(self, rng):
        # constant case: rejected points are Poisson with rate C*lam*(1 - 1/(N_e*lam))
        lam, c = 4.0, 1.0
        spec = DeterministicSpec(ConstantTrajectory(c), lam=lam)
        counts, expected = [], []
        for _ in range(2000):
            rec = simulate_hetero_thinning([0.0], [2], spec, [rng], record_latent=True)[0]
            counts.append(len(rec.latent_by_interval[0]))
            expected.append(lam * (1 - 1 / (c * lam)) * rec.coal_times[0])
        total, exp_total = np.sum(counts), np.sum(expected)
        assert abs(total - exp_total) < 4 * math.sqrt(exp_total)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_spec_rejects_unusable_lam(lam):
    with pytest.raises(ValidationError, match="lam"):
        DeterministicSpec(ConstantTrajectory(1.0), lam=lam)


class TestHeteroThinning:
    def test_first_epoch_survival_probability(self, rng):
        # two lineages on (0, 0.5] at rate 1: no coalescence there w.p. e^{-0.5}
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)
        reps = 4000
        none_before = 0
        for _ in range(reps):
            rec = simulate_hetero_thinning([0.0, 0.5], [2, 1], spec, [rng])[0]
            none_before += rec.coal_times[0] > 0.5
        p = math.exp(-0.5)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(none_before / reps - p) < 4 * se

    def test_matches_hetero_oracle(self, rng):
        traj = ConstantTrajectory(0.8)
        spec = DeterministicSpec(traj, lam=1.25)
        st, sc = [0.0, 0.4, 0.9], [3, 2, 2]
        thinned = np.array(
            [simulate_hetero_thinning(st, sc, spec, [rng])[0].coal_times for _ in range(2500)]
        )
        oracle = np.array(
            [simulate_time_transform(traj, rng, st, sc, 1)[0] for _ in range(2500)]
        )
        assert np.max(ks_against_oracle(thinned, oracle)) < 0.05

    def test_single_lineage_forever_rejected(self, rng):
        # a schedule that can never coalesce fails fast at validation
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)
        with pytest.raises(CoalgpError):
            simulate_hetero_thinning([0.0], [1], spec, [rng])


class TestGpThinning:
    def test_record_structure(self, rng):
        kernel = BrownianMotionKernel(theta=2.0, init_var=1.0)
        rec = simulate_hetero_thinning_gp([0.0], [8], kernel, 3.0, [rng])[0]
        assert len(rec.coal_times) == 7
        assert np.all(np.diff(rec.coal_times) > 0)
        fld = rec.gp_field
        assert np.array_equal(fld.times[fld.is_coal], rec.coal_times)
        assert np.array_equal(np.sort(np.concatenate([rec.coal_times, latent_times(rec)])), fld.times)
        bounds = np.concatenate([[0.0], rec.coal_times])
        for j, group in enumerate(rec.latent_by_interval):
            assert np.all(group > bounds[j]) and np.all(group < bounds[j + 1])

    def test_saturated_sigmoid_reduces_to_constant(self, rng):
        # a nearly degenerate OU keeps f at 0, so acceptance is 1/2 and the
        # law collapses to a constant trajectory with N_e = 2/lam
        lam = 2.0
        kernel = OrnsteinUhlenbeckKernel(theta=1e8, phi=1.0)
        draws = np.array(
            [simulate_hetero_thinning_gp([0.0], [2], kernel, lam, [rng])[0].coal_times[0] for _ in range(3000)]
        )
        assert stats.kstest(draws, "expon", args=(0.0, 2.0 / lam)).statistic < 0.035

    def test_lambda_doubling_compensation(self, rng):
        # doubling lam while halving sigmoid(f) leaves the intensity unchanged
        f = rng.standard_normal(1000) * 3.0
        lam = 1.7
        f_comp = logit(expit(f) / 2.0)
        assert np.allclose(2 * lam * sigmoid(f_comp), lam * sigmoid(f), rtol=1e-12)

    def test_hetero_gp_runs_and_respects_epochs(self, rng):
        kernel = BrownianMotionKernel(theta=1.0, init_var=1.0)
        rec = simulate_hetero_thinning_gp([0.0, 0.3, 0.8], [3, 2, 2], kernel, 3.0, [rng])[0]
        assert len(rec.coal_times) == 6
        # latent points recorded only inside epochs, never beyond the root
        assert np.all(latent_times(rec) < rec.coal_times[-1])


class TestSurvivalCurve:
    def test_survival_matches_integrated_hazard(self, rng):
        # pairwise survival P(t_1 > t) = exp(-(e^{5t} - 1)/125) for the
        # exponential-growth trajectory, checked at five time points
        traj = ExpGrowthTrajectory(25.0, 5.0)
        spec = DeterministicSpec(traj)
        reps = 4000
        draws = np.array([simulate_hetero_thinning([0.0], [2], spec, [rng])[0].coal_times[0] for _ in range(reps)])
        for t in (0.15, 0.3, 0.5, 0.7, 0.9):
            p = math.exp(-(math.exp(5 * t) - 1) / 125.0)
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(np.mean(draws > t) - p) < 4 * se, t


def test_ks_statistic_matches_scipy(rng):
    # continuous, unequal sizes, heavy ties within and across samples
    cases = [
        (rng.standard_normal(50), rng.standard_normal(73) + 0.3),
        (rng.integers(0, 6, 40).astype(float), rng.integers(0, 8, 97).astype(float)),
        (np.full(5, 2.0), np.array([2.0, 2.0, 3.0])),
        (rng.exponential(size=1), rng.exponential(size=200)),
    ]
    for a, b in cases:
        assert ks_statistic(a, b) == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)
    thinned, oracle = rng.exponential(size=(30, 4)), rng.exponential(size=(45, 4))
    expected = [stats.ks_2samp(thinned[:, j], oracle[:, j]).statistic for j in range(4)]
    assert np.allclose(ks_against_oracle(thinned, oracle), expected, rtol=0, atol=1e-12)


def test_record_json_round_trip(rng):
    # a record is read back as data (``infer --data``); its GP field and
    # latent groups are written as plain lists
    kernel = BrownianMotionKernel(theta=1.0, init_var=1.0)
    rec = simulate_hetero_thinning_gp([0.0], [5], kernel, 2.0, [rng])[0]
    obj = json.loads(json.dumps(rec.to_json()))
    assert np.array_equal(CoalescentData.from_json(obj).coal_times, rec.coal_times)
    assert np.array_equal(obj["f_times"], rec.gp_field.times)
    assert np.array_equal(obj["f_values"], rec.gp_field.values)
    assert np.array_equal(obj["f_is_coal"], rec.gp_field.is_coal)
    spec = DeterministicSpec(ConstantTrajectory(1.0), lam=3.0)  # rejects two in three
    rec3 = simulate_hetero_thinning([0.0], [5], spec, [rng], record_latent=True)[0]
    obj3 = json.loads(json.dumps(rec3.to_json()))
    assert np.array_equal(CoalescentData.from_json(obj3).coal_times, rec3.coal_times)
    assert "f_times" not in obj3
    assert len(obj3["latent_by_interval"]) == len(rec3.latent_by_interval) == 4
    for group, written in zip(rec3.latent_by_interval, obj3["latent_by_interval"]):
        assert np.array_equal(group, written)
    assert len(latent_times(rec3)) > 0


def _gens(seeds):
    return [np.random.Generator(np.random.Philox(s)) for s in seeds]


def _assert_same_record(a, b):
    assert np.array_equal(a.coal_times, b.coal_times)
    assert a.n_proposals == b.n_proposals
    assert len(a.latent_by_interval) == len(b.latent_by_interval)
    for ga, gb in zip(a.latent_by_interval, b.latent_by_interval):
        assert np.array_equal(ga, gb)
    assert (a.gp_field is None) == (b.gp_field is None)
    if a.gp_field is not None:
        assert np.array_equal(a.gp_field.times, b.gp_field.times)
        assert np.array_equal(a.gp_field.values, b.gp_field.values)
        assert np.array_equal(a.gp_field.is_coal, b.gp_field.is_coal)


SCHEDULES = [([0.0], [8]), ([0.0, 0.3, 0.8], [3, 2, 2])]
SEEDS = list(range(40, 52))


class TestBatchComposition:
    """Replicate r of a batch equals the single call with Generator r."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("record_latent", [False, True])
    @pytest.mark.parametrize(
        "spec",
        [
            DeterministicSpec(ConstantTrajectory(0.8), lam=1.25),
            DeterministicSpec(ExpGrowthTrajectory(25.0, 5.0)),
            DeterministicSpec(BoomBustTrajectory()),
        ],
        ids=["constant", "expgrowth", "boombust"],
    )
    def test_deterministic_thinner(self, schedule, record_latent, spec):
        st, sc = schedule
        batch = simulate_hetero_thinning(st, sc, spec, _gens(SEEDS), record_latent=record_latent)
        part = simulate_hetero_thinning(st, sc, spec, _gens(SEEDS[5:9]), record_latent=record_latent)
        assert len(batch) == len(SEEDS) and len(part) == 4
        for r, seed in enumerate(SEEDS):
            (gen,) = _gens([seed])
            single = simulate_hetero_thinning(st, sc, spec, [gen], record_latent=record_latent)[0]
            _assert_same_record(batch[r], single)
            assert len(single.latent_by_interval) == (sum(sc) - 1 if record_latent else 0)
        for r in range(4):
            _assert_same_record(part[r], batch[5 + r])

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "kernel",
        [BrownianMotionKernel(theta=1.0, init_var=1.0), OrnsteinUhlenbeckKernel(theta=2.0, phi=1.5)],
        ids=["bm", "ou"],
    )
    def test_gp_thinner(self, schedule, kernel):
        st, sc = schedule
        batch = simulate_hetero_thinning_gp(st, sc, kernel, 3.0, _gens(SEEDS))
        part = simulate_hetero_thinning_gp(st, sc, kernel, 3.0, _gens(SEEDS[7:]))
        for r, seed in enumerate(SEEDS):
            (gen,) = _gens([seed])
            _assert_same_record(batch[r], simulate_hetero_thinning_gp(st, sc, kernel, 3.0, [gen])[0])
        for r, rec in enumerate(part):
            _assert_same_record(rec, batch[7 + r])

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "traj",
        [ConstantTrajectory(0.8), ExpGrowthTrajectory(25.0, 5.0), BoomBustTrajectory()],
        ids=["constant", "expgrowth", "boombust"],
    )
    def test_oracle(self, schedule, traj):
        # one Generator drawn an event column at a time: row r is the walk of
        # column r of that stream on its own
        st, sc = schedule
        batch = simulate_time_transform(traj, _gens(SEEDS[:1])[0], st, sc, len(SEEDS))
        assert batch.shape == (len(SEEDS), sum(sc) - 1)
        assert np.all(np.diff(batch, axis=1) > 0)
        unit = _gens(SEEDS[:1])[0].exponential(size=(sum(sc) - 1, len(SEEDS)))
        for r in range(len(SEEDS)):
            single = simulate_time_transform(traj, _FixedExponentials(unit[:, r]), st, sc, 1)
            assert np.array_equal(batch[r], single[0])

    def test_proposal_cap_stops_the_batch(self):
        # lam 2 with N_e = 1: half the candidates are rejected, so some
        # replicate of the batch needs more than 3 proposals for an event
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=2.0)
        with pytest.raises(SimulationError, match="cap"):
            simulate_hetero_thinning([0.0], [4], spec, _gens(SEEDS), proposal_cap=3)

    def test_gp_proposal_cap_counts_rounds_per_interval(self):
        # a huge theta pins f near 0, so each candidate is accepted with
        # probability 1/2: a cap of 1 is too small, whatever the GP does, and
        # a cap of 20 holds although every replicate proposes more than 20
        kernel = OrnsteinUhlenbeckKernel(theta=1e6)
        with pytest.raises(SimulationError, match="cap 1 exceeded") as err:
            simulate_hetero_thinning_gp([0.0], [8], kernel, 3.0, _gens(range(10)), proposal_cap=1)
        assert "drifted" not in str(err.value)
        recs = simulate_hetero_thinning_gp([0.0], [20], kernel, 3.0, _gens(range(10)), proposal_cap=20)
        assert min(rec.n_proposals for rec in recs) > 20

    def test_gp_round_bound_counts_each_interval(self, monkeypatch):
        # on one sampling time an interval takes its latent group's size plus
        # 1 rounds: a bound at the largest such count holds although
        # replicates retain more points than that, and one round less stops
        # the batch at the replicate that takes that many
        st, sc = SCHEDULES[0]
        kernel = BrownianMotionKernel(theta=1.0, init_var=1.0)
        recs = simulate_hetero_thinning_gp(st, sc, kernel, 3.0, _gens(SEEDS))
        rounds = [max(len(g) + 1 for g in rec.latent_by_interval) for rec in recs]
        assert max(len(rec.gp_field.times) for rec in recs) > max(rounds)
        monkeypatch.setattr(simulate, "MAX_INTERVAL_ROUNDS", max(rounds))
        for rec, again in zip(recs, simulate_hetero_thinning_gp(st, sc, kernel, 3.0, _gens(SEEDS))):
            _assert_same_record(rec, again)
        monkeypatch.setattr(simulate, "MAX_INTERVAL_ROUNDS", max(rounds) - 1)
        with pytest.raises(SimulationError, match=f"more than {max(rounds) - 1} GP candidate rounds") as err:
            simulate_hetero_thinning_gp(st, sc, kernel, 3.0, _gens(SEEDS))
        assert rounds[int(str(err.value).split()[1])] == max(rounds)

    def test_empty_batch_raises(self):
        spec = DeterministicSpec(ConstantTrajectory(1.0), lam=1.0)
        with pytest.raises(EvaluationError, match="at least one Generator"):
            simulate_hetero_thinning([0.0], [4], spec, [])
        with pytest.raises(EvaluationError, match="at least one Generator"):
            simulate_hetero_thinning_gp([0.0], [4], BrownianMotionKernel(), 3.0, [])


def test_gp_discards_at_most_one_candidate_per_sampling_time():
    # the first candidate past the next sampling time moves the
    # replicate there; no further candidates are drawn beyond it
    st, sc = [0.0, 0.3, 0.8], [3, 2, 2]
    kernel = BrownianMotionKernel(theta=1.0, init_var=1.0)
    recs = [simulate_hetero_thinning_gp(st, sc, kernel, 3.0, [gen])[0] for gen in _gens(range(200))]
    discarded = np.array([rec.n_proposals - len(rec.gp_field.times) for rec in recs])
    assert np.all(discarded >= 0)
    assert np.all(discarded <= len(st) - 1)


def test_window_must_be_positive():
    for window in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="window must be positive"):
            DeterministicSpec(ExpGrowthTrajectory(25.0, 5.0), window=window).resolved_window()
