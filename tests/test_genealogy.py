"""Newick parsing, coalescent-data extraction, and interval-grid structure."""

import math

import numpy as np
import pytest

from coalgp.errors import NewickError, ValidationError
from coalgp.genealogy import (
    CoalescentData,
    build_interval_grid,
    coalescent_factor,
    extract_coalescent_data,
    parse_newick,
    read_tip_dates,
)
from conftest import random_hetero_data

TWO_TIP = "(A:1.0,B:1.0);"
THREE_TIP_ISO = "((A:0.3,B:0.3):0.7,C:1.0);"
THREE_TIP_HETERO = "((A:0.3,B:0.3):0.7,C:0.5);"


class TestParseNewick:
    def test_two_tip_symmetric(self):
        g = parse_newick(TWO_TIP)
        assert len(g.tips) == 2
        assert np.allclose(sorted(g.tip_heights()), [0.0, 0.0])
        assert g.root.height == pytest.approx(1.0)

    def test_three_tip_heights(self):
        g = parse_newick(THREE_TIP_ISO)
        assert g.root.height == pytest.approx(1.0)
        assert np.allclose(g.internal_heights(), [0.3, 1.0])
        assert np.allclose(sorted(g.tip_heights()), [0.0, 0.0, 0.0])

    def test_unbalanced_input_errors_at_end(self):
        with pytest.raises(NewickError) as err:
            parse_newick("(A:1.0,B:1.0")
        assert err.value.position == len("(A:1.0,B:1.0")

    def test_missing_branch_length(self):
        with pytest.raises(NewickError, match="branch length"):
            parse_newick("(A,B:1.0);")

    def test_missing_semicolon(self):
        with pytest.raises(NewickError, match="';'"):
            parse_newick("(A:1.0,B:1.0)")

    def test_multifurcation_rejected(self):
        with pytest.raises(ValidationError, match="binary"):
            parse_newick("(A:1.0,B:1.0,C:1.0);")

    def test_zero_branch_length_rejected(self):
        with pytest.raises(ValidationError, match="height"):
            parse_newick("((A:0.0,B:0.3):0.7,C:1.0);")

    def test_quoted_labels_and_whitespace(self):
        g = parse_newick(" ( 'tip one' :1.0 , B:1.0 ) ; ")
        assert sorted(t.label for t in g.tips) == ["B", "tip one"]

    @pytest.mark.parametrize(
        "newick",
        [TWO_TIP, THREE_TIP_ISO, THREE_TIP_HETERO, "((A:0.125,B:0.125):0.875,(C:0.6,D:0.6):0.4);"],
    )
    def test_round_trip_heights(self, newick):
        g1 = parse_newick(newick)
        g2 = parse_newick(g1.to_newick())
        h1 = np.sort([n.height for n in g1.nodes])
        h2 = np.sort([n.height for n in g2.nodes])
        assert np.max(np.abs(h1 - h2)) < 1e-12

    def test_embedded_dates(self):
        g = parse_newick("((A|1993:0.3,B|1993:0.3):0.7,C|1992.5:0.5);", date_delimiter="|")
        assert len(g.tips) == 3

    def test_embedded_dates_inconsistent(self):
        with pytest.raises(ValidationError, match="date"):
            parse_newick("((A|1993:0.3,B|1993:0.3):0.7,C|1990:0.5);", date_delimiter="|")
        for newick in (
            "((A|2000:0.3,B|2000:0.3):0.7,C|inf:1.0);",
            "((A|NaN:0.3,B|2000:0.3):0.7,C|2000:1.0);",
            "(A|inf:1.0,B|inf:1.0);",
        ):
            with pytest.raises(ValidationError, match="not finite"):
                parse_newick(newick, date_delimiter="|")

    def test_sidecar_dates(self):
        dates = read_tip_dates("A\t2000\nB\t2000\nC\t1999.5\n")
        g = parse_newick(THREE_TIP_HETERO, tip_dates=dates)
        assert len(g.tips) == 3
        with pytest.raises(ValidationError, match="date"):
            parse_newick(THREE_TIP_ISO, tip_dates=dates)
        for newick, table in (
            (THREE_TIP_ISO, "A\tnan\nB\t2000\nC\t2000\n"),
            (THREE_TIP_ISO, "A\t2000\nB\t2000\nC\tinf\n"),
            (TWO_TIP, "A\t-inf\nB\t-inf\n"),
        ):
            with pytest.raises(ValidationError, match="not finite"):
                parse_newick(newick, tip_dates=read_tip_dates(table))
        with pytest.raises(ValidationError, match="not finite"):
            parse_newick(TWO_TIP, tip_dates={"A": 2000.0, "B": float("nan")})

    def test_sidecar_dates_missing_tip(self):
        with pytest.raises(ValidationError, match="missing"):
            parse_newick(TWO_TIP, tip_dates={"A": 2000.0})


class TestExtract:
    def test_two_tip(self):
        d = extract_coalescent_data(parse_newick(TWO_TIP))
        assert np.allclose(d.coal_times, [1.0])
        assert list(d.samp_times) == [0.0]
        assert list(d.samp_counts) == [2]

    def test_three_tip_iso(self):
        d = extract_coalescent_data(parse_newick(THREE_TIP_ISO))
        assert np.allclose(d.coal_times, [0.3, 1.0])
        assert list(d.samp_times) == [0.0]
        assert list(d.samp_counts) == [3]

    def test_three_tip_hetero(self):
        d = extract_coalescent_data(parse_newick(THREE_TIP_HETERO))
        assert np.allclose(d.coal_times, [0.3, 1.0])
        assert np.allclose(d.samp_times, [0.0, 0.5])
        assert list(d.samp_counts) == [2, 1]

    def test_tied_internal_heights_rejected(self):
        with pytest.raises(ValidationError, match="tied"):
            extract_coalescent_data(parse_newick("((A:0.5,B:0.5):0.5,(C:0.5,D:0.5):0.5);"))


def test_date_and_tip_height_tolerances_at_their_edges():
    # a tip date may miss its branch-length height by 1e-6; tip heights
    # within 1e-9 of each other form one sampling event
    parse_newick(THREE_TIP_HETERO, tip_dates={"A": 1.0, "B": 1.0, "C": 0.5 - 0.5e-6})
    with pytest.raises(ValidationError, match="date implies height"):
        parse_newick(THREE_TIP_HETERO, tip_dates={"A": 1.0, "B": 1.0, "C": 0.5 - 2e-6})
    for gap, counts in ((0.5e-9, [3]), (2e-9, [1, 2])):
        d = extract_coalescent_data(parse_newick(f"((A:0.3,B:0.3):0.7,C:{1.0 + gap!r});"))
        assert list(d.samp_counts) == counts


class TestCoalescentData:
    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            CoalescentData([1.0, 0.5], [0.0], [3])  # not increasing
        with pytest.raises(ValidationError):
            CoalescentData([0.5, 1.0], [0.0], [4])  # count mismatch
        with pytest.raises(ValidationError):
            CoalescentData([0.5, 1.0], [0.1, 0.4], [2, 1])  # sampling not from 0
        with pytest.raises(ValidationError):
            CoalescentData([0.5, 1.0], [0.0, 1.5], [2, 1])  # root before oldest sample

    def test_lineage_count_validity(self):
        # two coalescences before the second batch arrives starves the lineages
        with pytest.raises(ValidationError, match="active lineages"):
            CoalescentData([0.1, 0.2, 0.9], [0.0, 0.5], [2, 2])

    def test_json_round_trip(self):
        d = CoalescentData([0.3, 1.0], [0.0, 0.5], [2, 1])
        d2 = CoalescentData.from_json(d.to_json())
        assert np.array_equal(d.coal_times, d2.coal_times)
        assert np.array_equal(d.samp_times, d2.samp_times)
        assert np.array_equal(d.samp_counts, d2.samp_counts)

    def test_json_accepts_explicit_zero_origin(self):
        obj = {"coal_times": [0.0, 0.3, 1.0], "samp_times": [0.0], "samp_counts": [3]}
        d = CoalescentData.from_json(obj)
        assert np.allclose(d.coal_times, [0.3, 1.0])


class TestCoalescentFactor:
    @pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (3, 3), (100, 4950)])
    def test_values(self, k, expected):
        assert coalescent_factor(k) == expected

    def test_domain_error(self):
        with pytest.raises(ValueError):
            coalescent_factor(0)


class TestIntervalGrid:
    def test_iso_three_tip(self):
        d = CoalescentData.isochronous([0.3, 1.0])
        grid = build_interval_grid(d)
        assert np.allclose(grid.starts, [0.0, 0.3])
        assert np.allclose(grid.ends, [0.3, 1.0])
        assert np.allclose(grid.coal_factor, [3.0, 1.0])
        assert grid.ends_with_coal.all()

    def test_hetero_example(self):
        d = CoalescentData([0.3, 1.0], [0.0, 0.5], [2, 1])
        grid = build_interval_grid(d)
        assert np.allclose(grid.starts, [0.0, 0.3, 0.5])
        assert np.allclose(grid.ends, [0.3, 0.5, 1.0])
        assert list(grid.n_lineages) == [2, 1, 2]
        assert np.allclose(grid.coal_factor, [1.0, 0.0, 1.0])
        assert list(grid.ends_with_coal) == [True, False, True]
        assert list(grid.event_index) == [0, 1, 1]

    def test_iso_always_one_interval_per_event(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            coal = np.sort(rng.uniform(0.01, 5.0, size=n - 1))
            d = CoalescentData.isochronous(coal)
            grid = build_interval_grid(d)
            assert grid.n_intervals == n - 1
            assert grid.ends_with_coal.all()
            assert np.allclose(grid.coal_factor, [k * (k - 1) / 2 for k in range(n, 1, -1)])

    def test_latent_slices_match_recount(self, rng):
        seen = {"empty": 0, "on_sampling_time": 0, "zero_factor": 0}
        datasets = [CoalescentData([0.3, 1.0], [0.0, 0.5], [2, 1])]  # one lineage on (0.3, 0.5]
        datasets += [random_hetero_data(rng, max_batches=6) for _ in range(40)]
        for d in datasets:
            grid = build_interval_grid(d)
            zero = grid.coal_factor == 0
            lat = np.concatenate([
                rng.uniform(0.0, d.tmrca, size=rng.integers(0, 12)),
                d.samp_times[1:][rng.random(len(d.samp_times) - 1) < 0.5],
                rng.uniform(grid.starts[zero], grid.ends[zero]),
            ])
            lat = np.setdiff1d(lat[lat > 0], grid.coal_event_times)
            times = np.union1d(lat, grid.coal_event_times)
            first, count = grid.latent_slices(times)
            owner = np.searchsorted(grid.ends, lat)
            assert np.array_equal(count, np.bincount(owner, minlength=grid.n_intervals))
            for j in range(grid.n_intervals):
                assert np.array_equal(times[first[j]:first[j] + count[j]], lat[owner == j])
            seen["empty"] += int(np.sum(count == 0))
            seen["on_sampling_time"] += int(np.isin(lat, d.samp_times).sum())
            seen["zero_factor"] += int(count[zero].sum())
        assert min(seen.values()) > 0, seen

    def test_latent_slices_miss_points_outside_the_span(self):
        grid = build_interval_grid(CoalescentData.isochronous([0.3, 1.0]))
        times = np.array([0.0, 0.2, 0.3, 1.0, 1.5])
        first, count = grid.latent_slices(times)
        assert list(count) == [1, 0] and list(first) == [1, 3]

    def test_lineage_walk_and_total_depth(self, rng):
        for _ in range(20):
            d = random_hetero_data(rng)
            grid = build_interval_grid(d)
            # contiguous tiling of (0, root]
            assert grid.starts[0] == 0.0
            assert np.allclose(grid.starts[1:], grid.ends[:-1])
            assert grid.ends[-1] == pytest.approx(d.tmrca)
            assert grid.lengths.sum() == pytest.approx(d.tmrca)
            # piecewise count: starts at the first batch, +n_j at sampling
            # times, -1 at coalescences, ends at 2 just before the root
            assert grid.n_lineages[0] == d.samp_counts[0]
            assert grid.n_lineages[-1] == 2
            assert np.all(grid.n_lineages >= 1)
            for i in range(1, grid.n_intervals):
                delta = int(grid.n_lineages[i] - grid.n_lineages[i - 1])
                expected = -1 if grid.ends_with_coal[i - 1] else 0
                at_sampling = np.flatnonzero(d.samp_times == grid.starts[i])
                if len(at_sampling):
                    expected += int(d.samp_counts[at_sampling[0]])
                assert delta == expected

    def test_coalescence_exactly_at_sampling_time(self):
        # the interval ending there is right-closed at the coalescent event;
        # the arriving samples count from the next interval on
        d = CoalescentData([0.5, 1.2], [0.0, 0.5], [2, 1])
        grid = build_interval_grid(d)
        assert np.allclose(grid.ends, [0.5, 1.2])
        assert list(grid.ends_with_coal) == [True, True]
        assert list(grid.n_lineages) == [2, 2]  # -1 coalescence +1 sample at 0.5

    def test_interval_lookup(self):
        # intervals (0, 0.3], (0.3, 0.5], (0.5, 1.0]: right-closed, so the
        # coalescent time 0.3 belongs to the interval it closes
        d = CoalescentData([0.3, 1.0], [0.0, 0.5], [2, 1])
        grid = build_interval_grid(d)
        owner = np.searchsorted(grid.ends, [0.1, 0.3, 0.4, 0.7])
        assert list(owner) == [0, 0, 1, 2]
        # pair counts by lookup: one lineage between the coalescence and the
        # second sample
        assert list(grid.coal_factor[owner[2:]]) == [0.0, 1.0]
        # latent_slices places the same points, less the event closing interval 0
        first, count = grid.latent_slices(np.array([0.1, 0.3, 0.4, 0.7, 1.0]))
        assert list(first) == [0, 2, 3] and list(count) == [1, 1, 1]
        # times outside (0, root] belong to no interval
        assert grid.latent_slices(np.array([0.0, 0.3, 1.0, 1.5]))[1].sum() == 0


BAD_SCHEDULES = {
    "one-sample": ([0.0], [1]),
    "infinite-time": ([0.0, np.inf], [5, 3]),
    "nan-time": ([0.0, np.nan], [5, 3]),
    "late-start": ([0.1, 0.5], [5, 3]),
    "repeated-time": ([0.0, 0.0], [5, 3]),
    "zero-count": ([0.0, 1.0], [0, 3]),
    "fractional-count": ([0.0, 1.0], [2.5, 3.0]),
}


@pytest.mark.parametrize("name", sorted(BAD_SCHEDULES))
def test_one_schedule_check_for_data_and_simulators(name):
    from coalgp.simulate import simulate_time_transform
    from coalgp.trajectories import ConstantTrajectory

    samp_times, samp_counts = BAD_SCHEDULES[name]
    coal = np.arange(2.0, 1.0 + np.sum(samp_counts))  # past every sample
    with pytest.raises(ValidationError):
        CoalescentData(coal, samp_times, samp_counts)
    with pytest.raises(ValidationError):
        simulate_time_transform(ConstantTrajectory(1.0), np.random.default_rng(0), samp_times, samp_counts, 1)


def test_coal_times_must_be_finite():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite"):
            CoalescentData([0.4, bad], [0.0], [3])


def test_coalescent_factor_elementwise():
    k = np.arange(1, 200)
    assert np.array_equal(coalescent_factor(k), [coalescent_factor(int(x)) for x in k])
    with pytest.raises(ValueError):
        coalescent_factor(np.array([3, 0, 2]))


def _reference_grid(d):
    """The interval grid by an explicit event loop, kept as the oracle for
    the array walk in ``build_interval_grid``."""
    events = {}
    for t in d.coal_times:
        events.setdefault(float(t), [0, 0])[0] += 1
    for t, c in zip(d.samp_times, d.samp_counts):
        events.setdefault(float(t), [0, 0])[1] += int(c)
    rows, active, coal_seen, prev = [], 0, 0, None
    for t in sorted(events):
        n_coal, add = events[t]
        if prev is not None:
            rows.append((prev, t, active, active * (active - 1) // 2, coal_seen, bool(n_coal)))
        active += add - n_coal
        coal_seen += n_coal
        prev = t
    dtypes = (float, float, int, float, int, bool)
    return [np.array(col, dtype=dt) for col, dt in zip(zip(*rows), dtypes)]


def test_array_walk_matches_event_loop(rng):
    fields = ("starts", "ends", "n_lineages", "coal_factor", "event_index", "ends_with_coal")
    at_sampling = 0
    for _ in range(300):
        d = random_hetero_data(rng, max_batches=8)
        if len(d.samp_times) > 1 and rng.random() < 0.5:  # move one coalescence onto a sampling time
            coal = np.sort(np.append(np.delete(d.coal_times, rng.integers(len(d.coal_times))),
                                     rng.choice(d.samp_times[1:])))
            try:
                d = CoalescentData(coal, d.samp_times, d.samp_counts)
                at_sampling += 1
            except ValidationError:
                pass
        grid = build_interval_grid(d)
        ref = _reference_grid(d)
        for name, expected in zip(fields, ref):
            got = getattr(grid, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        starts, ends, _, factor, _, ends_with_coal = ref
        assert np.array_equal(grid.lengths, ends - starts)
        assert grid.total_hazard_weight == pytest.approx(math.fsum(factor * (ends - starts)), rel=1e-12)
        assert np.array_equal(grid.coal_event_times, ends[ends_with_coal])
        assert np.array_equal(grid.coal_event_times, d.coal_times)
    assert at_sampling > 20
