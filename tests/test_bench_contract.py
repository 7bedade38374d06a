"""The benchmark's tracer still finds every binding it wraps.

perfbench/tracing.py wraps coalgp functions by name; a binding that stops
resolving drops its per-layer metrics from the benchmark's result line.
This reads perfbench/ only: it installs the tracer, restores it, and checks
that the metric set is exactly BENCHMARK.json's per-layer list.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    return tracing


def test_layer_metrics_cover_benchmark_per_layer_list(tracing):
    tracer = tracing.Tracer()
    tracer.install_all()
    tracer.restore()
    spans = tracing.SpanTable([], [], [], [], [])
    metrics, notes = tracing.layer_metrics(spans, tracer.counts, {}, 0.0, tracer.installed)
    expected = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert notes == []
    assert sorted(metrics) == sorted(expected)
    assert len(expected) == 43


def test_every_traced_binding_resolves(tracing):
    tracer = tracing.Tracer()
    tracer.install_all()
    tracer.restore()
    assert tracer.notes == []
