"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import math
import sys
from pathlib import Path

import pytest
from scipy.special import kolmogorov

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0,10] -> a [1,4], b [5,9] -> c [6,7]
    spans = tracing.SpanTable(
        ["root", "a", "b"], name=[0, 1, 2, 2], start=[0, 1, 5, 6], end=[10, 4, 9, 7], parent=[-1, 0, 0, 2]
    )
    assert spans.self_time.tolist() == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert spans.self_total("b") == pytest.approx(4.0)
    assert spans.total("b") == pytest.approx(5.0)
    assert spans.outer_total("b") == pytest.approx(4.0)  # nested b inside b counted once
    assert spans.mean("b") == pytest.approx(2.5)
    assert spans.count("missing") == 0 and spans.total("missing") == 0.0


def test_progress_lines_give_iteration_rate():
    lines = [
        (10.0, "[chain 0] iteration 50/1000  acceptance: rj_add=0.61 ess=1.00"),
        (10.5, "unrelated warning"),
        (12.0, "[chain 0] iteration 100/1000  acceptance: rj_add=0.62 ess=1.00"),
        (30.0, "[chain 0] iteration 1000/1000  acceptance: rj_add=0.62 ess=1.00"),
    ]
    progress = run.parse_progress(lines)
    assert progress == [(10.0, 50), (12.0, 100), (30.0, 1000)]
    assert run.iteration_rate([progress]) == pytest.approx(950 / 20.0)
    # a second repeat whose chain took 10 s: the mean chain time is 15 s
    other = [(0.0, 50), (5.0, 100), (10.0, 1000)]
    assert run.iteration_rate([progress, other]) == pytest.approx(950 / 15.0)
    assert run.iteration_rate([progress[:1]]) is None
    assert run.iteration_rate([progress, other[:2]]) is None  # same iterations in every repeat


@pytest.mark.parametrize("alpha", [0.05, 0.001, 0.001 / 9])
def test_ks_critical_matches_kolmogorov_tail(alpha):
    n = 2000
    crit = workloads.ks_critical(n, n, alpha)
    assert kolmogorov(crit / math.sqrt(2.0 / n)) == pytest.approx(alpha, rel=1e-3)
    assert workloads.ks_critical(n, n, 0.05) == pytest.approx(1.3581 * math.sqrt(2.0 / n), rel=1e-4)


def test_serial_inputs_round_trip(tmp_path):
    record = workloads.write_serial_inputs(3, tmp_path)
    assert record["tips"] == 1000 and record["sampling_times"] == 50
    assert record["coalescent_events"] == 999
    (tmp_path / "again").mkdir()
    assert workloads.write_serial_inputs(3, tmp_path / "again") == record
    assert (tmp_path / "again" / "tree.nwk").read_bytes() == (tmp_path / "tree.nwk").read_bytes()


def test_batch_check_flags_missing_files_and_large_ks(tmp_path):
    out, reps = tmp_path / "b.json", 100
    for r in range(reps):
        (tmp_path / f"b_{r:04d}.json").write_text(json.dumps({"coal_times": [0.1, 0.2, 0.3]}))
    (tmp_path / "b_ks_report.json").write_text(json.dumps({"ks_max": 0.05}))
    assert workloads.batch_problems(out, reps, 4, ks=True) == []
    assert workloads.batch_problems(out, reps + 1, 4, ks=True)
    assert workloads.batch_problems(out, reps, 5, ks=False)  # wrong event count
    (tmp_path / "b_ks_report.json").write_text(json.dumps({"ks_max": 0.5}))
    assert workloads.batch_problems(out, reps, 4, ks=True)


def test_tracer_restores_bindings_and_skips_missing_targets():
    import coalgp.cli
    import coalgp.mcmc

    before = (coalgp.cli.run_chain, coalgp.mcmc.rj_update, coalgp.mcmc.ChainOutput.__dict__["read_jsonl"])
    tracer = tracing.Tracer()
    tracer.install_all()
    assert coalgp.mcmc.rj_update is not before[1]
    assert not tracer.install("coalgp.mcmc", "no_such_kernel", "mcmc.none")
    assert any("no_such_kernel" in note for note in tracer.notes)
    tracer.restore()
    after = (coalgp.cli.run_chain, coalgp.mcmc.rj_update, coalgp.mcmc.ChainOutput.__dict__["read_jsonl"])
    assert all(a is b for a, b in zip(before, after))


def test_missing_span_leaves_metric_out():
    spans = tracing.SpanTable([], [], [], [], [])
    counts = {k: 0 for k in ("simulate.proposals", "simulate.events", "genealogy.intervals", "mcmc.ess_loglik_evals")}
    metrics, notes = tracing.layer_metrics(spans, counts, {}, 1.0, installed=set())
    assert "mcmc.rj_ms_per_iter" not in metrics
    assert any(n.startswith("mcmc.rj_ms_per_iter") for n in notes)
    assert metrics["trace.overhead_ratio"] == 1.0


def test_benchmark_json_matches_layer_map():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in layer_map["per_layer"]
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"]]
    assert set(layer_map["end_to_end"]) == set(names)
    for m in layer_map["per_layer"]:
        assert set(m["moves"]) <= set(names) | set(layer_map["informational"])
        assert set(m["on"]) | set(m["no_change_on"]) <= set(workloads.WORKLOADS)
