"""End-to-end command-line behavior: files, determinism, exit codes."""

import base64
import json
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from coalgp.cli import main
from coalgp.genealogy import parse_newick

TREE = "((A:0.3,B:0.3):0.7,C:0.5);"


def run(argv):
    return main([str(a) for a in argv])


class TestSimulateCommand:
    def test_iso_constant_count_contract(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run(
            ["simulate", "--iso", "-n", 100, "--traj", "constant:1", "--lambda", 1,
             "--seed", 7, "--out", out]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["coal_times"]) == 99
        assert payload["meta"]["seed"] == 7

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--iso", "-n", 30, "--traj", "expgrowth:25,5", "--seed", 7]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes().replace(b"a.json", b"") == b.read_bytes().replace(b"b.json", b"")

    def test_gp_simulation(self, tmp_path):
        out = tmp_path / "gp.json"
        code = run(
            ["simulate", "--iso", "-n", 12, "--kernel", "bm", "--theta", 2, "--init-var", 1,
             "--lambda", 3, "--seed", 1, "--out", out]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["coal_times"]) == 11
        assert len(payload["f_times"]) == len(payload["f_values"])

    def test_replicates_write_ks_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(
            ["simulate", "--iso", "-n", 6, "--traj", "constant:1", "--lambda", 1,
             "--seed", 3, "--replicates", 40, "--out", out]
        )
        assert code == 0
        files = sorted(tmp_path.glob("rep_0*.json"))
        assert len(files) == 40
        report = json.loads((tmp_path / "rep_ks_report.json").read_text())
        assert len(report["ks_by_event"]) == 5

    def test_hetero_schedule(self, tmp_path):
        out = tmp_path / "het.json"
        code = run(
            ["simulate", "--schedule", "0:3,0.5:2", "--traj", "constant:1", "--lambda", 1,
             "--seed", 5, "--out", out]
        )
        assert code == 0
        assert len(json.loads(out.read_text())["coal_times"]) == 4

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert run(["simulate", "--iso", "-n", 5, "--traj", "nosuch:1", "--out", tmp_path / "x"]) == 2
        assert run(["simulate", "--iso", "-n", 5, "--out", tmp_path / "x"]) == 2  # no traj/kernel
        assert run(["simulate", "-n", 5, "--traj", "constant:1", "--out", tmp_path / "x"]) == 2

    def test_runtime_error_exit_3(self, tmp_path):
        code = run(
            ["simulate", "--iso", "-n", 3, "--traj", "constant:1", "--lambda", 1e6,
             "--proposal-cap", 200, "--seed", 0, "--out", tmp_path / "x.json"]
        )
        assert code == 3


class TestInferCommand:
    def infer_args(self, tree_path, out):
        return [
            "infer", "--tree", tree_path, "--iters", 120, "--burnin", 20, "--thin", 5,
            "--lambda-hat", 3, "--eps", 0.01, "--alpha", 0.001, "--beta", 0.001,
            "--seed", 1, "--out", out,
        ]

    def test_infer_writes_chain(self, tmp_path, capsys):
        tree = tmp_path / "t.nwk"
        tree.write_text(TREE)
        out = tmp_path / "chain.jsonl"
        assert run(self.infer_args(tree, out)) == 0
        lines = out.read_text().strip().splitlines()
        meta = json.loads(lines[0])
        header = json.loads(lines[1])
        assert meta["type"] == "meta" and header["type"] == "header"
        assert header["n_draws"] == len(lines) - 2 == 20
        err = capsys.readouterr().err
        assert "acceptance" in err

    def test_missing_tree_exits_2(self, tmp_path):
        assert run(self.infer_args(tmp_path / "absent.nwk", tmp_path / "o.jsonl")) == 2

    def test_data_json_input(self, tmp_path):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"coal_times": [0.4, 1.1], "samp_times": [0.0], "samp_counts": [3]}))
        out = tmp_path / "chain.jsonl"
        code = run(
            ["infer", "--data", data, "--iters", 60, "--burnin", 10, "--seed", 2,
             "--kernel", "ou", "--phi", 1.0, "--lambda-hat", 2, "--out", out]
        )
        assert code == 0
        header = json.loads(out.read_text().splitlines()[1])
        assert header["kernel"]["kind"] == "ou"

    @pytest.mark.parametrize("key", ["coal_times", "samp_times", "samp_counts"])
    @pytest.mark.parametrize("fault", ["missing", "mistyped"])
    def test_data_json_bad_key_exits_2(self, tmp_path, capsys, key, fault):
        obj = {"coal_times": [0.4, 1.1], "samp_times": [0.0], "samp_counts": [3]}
        if fault == "missing":
            del obj[key]
        else:
            obj[key] = ["x"] * len(obj[key])
        data = tmp_path / "d.json"
        data.write_text(json.dumps(obj))
        code = run(["infer", "--data", data, "--iters", 20, "--burnin", 5, "--out", tmp_path / "c.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert key in err

    def test_evaluation_error_aborts_with_state_dump(self, tmp_path, monkeypatch, capsys):
        import coalgp.mcmc
        from coalgp.errors import EvaluationError

        def fail(*args, **kwargs):
            raise EvaluationError("times must be strictly increasing without duplicates")

        monkeypatch.setattr(coalgp.mcmc, "ess_update", fail)
        tree = tmp_path / "t.nwk"
        tree.write_text(TREE)
        out = tmp_path / "chain.jsonl"
        assert run(self.infer_args(tree, out)) == 3
        err = capsys.readouterr().err
        assert "strictly increasing" in err and "Traceback" not in err
        dump = json.loads(out.with_suffix(".abort.json").read_text())
        assert dump["state"]["iteration"] == 0
        assert "iteration 0" in dump["error"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--halfwidth"])
    def test_overflow_aborts_with_state_dump(self, tmp_path, capsys, flag):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"coal_times": [0.4, 1.1], "samp_times": [0.0], "samp_counts": [3]}))
        out = tmp_path / "chain.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["infer", "--data", data, "--iters", 20, "--burnin", 5, flag, "1e308", "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        dump = json.loads(out.with_suffix(".abort.json").read_text())
        assert f"iteration {dump['state']['iteration']}" in dump["error"]
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_multi_chain_abort_exits_3_with_dump(self, tmp_path, capsys, workers):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"coal_times": [0.5, 1.0], "samp_times": [0.0], "samp_counts": [3]}))
        out = tmp_path / "chain.jsonl"
        code = run(["infer", "--data", data, "--iters", 20, "--burnin", 5, "--thin", 1, "--alpha", "1e308",
                    "--chains", 2, "--workers", workers, "--out", out])
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        dump = json.loads((tmp_path / "chain_chain0.abort.json").read_text())
        assert f"at iteration {dump['state']['iteration']}" in dump["error"]
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_infer_determinism(self, tmp_path):
        tree = tmp_path / "t.nwk"
        tree.write_text(TREE)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(self.infer_args(tree, a))
        run(self.infer_args(tree, b))
        strip = lambda p: p.read_text().replace(str(p), "")  # noqa: E731
        assert strip(a) == strip(b)


class TestSummarizeCommand:
    def make_chain(self, tmp_path):
        tree = tmp_path / "t.nwk"
        tree.write_text(TREE)
        out = tmp_path / "chain.jsonl"
        assert run(
            ["infer", "--tree", tree, "--iters", 200, "--burnin", 50, "--thin", 5,
             "--lambda-hat", 3, "--seed", 4, "--out", out]
        ) == 0
        return out

    def test_summary_rows(self, tmp_path):
        chain = self.make_chain(tmp_path)
        out = tmp_path / "summary.csv"
        assert run(["summarize", "--chain", chain, "--grid", 25, "--seed", 0, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 26

    def test_metrics_with_truth(self, tmp_path):
        chain = self.make_chain(tmp_path)
        out = tmp_path / "summary.csv"
        metrics = tmp_path / "metrics.json"
        code = run(
            ["summarize", "--chain", chain, "--grid", 25, "--truth", "constant:1",
             "--metrics-out", metrics, "--seed", 0, "--out", out]
        )
        assert code == 0
        report = json.loads(metrics.read_text())
        assert set(report) == {"sre", "mrw", "envelope", "variation", "grid_size"}

    def test_bad_truth_exits_2_before_writing(self, tmp_path, capsys):
        chain = self.make_chain(tmp_path)
        out = tmp_path / "summary.csv"
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--truth", "constant:-1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_failing_metric_exits_2_and_writes_nothing(self, tmp_path, capsys):
        chain = self.make_chain(tmp_path)
        out = tmp_path / "summary.csv"
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--grid", 1, "--truth", "constant:1", "--out", out]) == 2
        assert "two grid points" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".metrics.json").exists()

    def test_extrapolation_warns(self, tmp_path, capsys):
        chain = self.make_chain(tmp_path)
        out = tmp_path / "summary.csv"
        assert run(
            ["summarize", "--chain", chain, "--grid", 10, "--grid-max", 5.0,
             "--seed", 0, "--out", out]
        ) == 0
        assert "beyond the root" in capsys.readouterr().err
        rows = out.read_text().strip().splitlines()[1:]
        assert any(r.endswith(",1") for r in rows)

    @pytest.mark.parametrize(
        "fault, key",
        [("draw", "theta"), ("draw", "times"), ("header", "kernel"), ("header", "config")],
    )
    def test_chain_missing_key_exits_2(self, tmp_path, capsys, fault, key):
        chain = self.make_chain(tmp_path)
        lines = chain.read_text().splitlines()
        target = 2 if fault == "draw" else 1
        obj = json.loads(lines[target])
        del obj[key]
        lines[target] = json.dumps(obj)
        chain.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--out", tmp_path / "s.csv"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert repr(key) in err

    @pytest.mark.parametrize(
        "line, key, value",
        [(2, "theta", [1.0]), (2, "values", [0.5]), (2, "times", "reversed"),
         (1, "kernel", {"kind": "bm", "theta": "x", "init_var": 1}), (1, "config", {"iterations": 10, "bogus": 1}),
         (1, "kernel", {"kind": "ou", "theta": 1, "phi": float("nan")}),
         (1, "kernel", {"kind": "bm", "theta": 1, "init_var": float("inf")})],
    )
    def test_chain_malformed_value_exits_2(self, tmp_path, capsys, line, key, value):
        chain = self.make_chain(tmp_path)
        lines = chain.read_text().splitlines()
        obj = json.loads(lines[line])
        obj[key] = obj[key][::-1] if value == "reversed" else value
        lines[line] = json.dumps(obj)
        chain.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--out", tmp_path / "s.csv"]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_chain_non_json_line_exits_2(self, tmp_path, capsys):
        chain = self.make_chain(tmp_path)
        with open(chain, "a") as fh:
            fh.write('{"iteration": 3, oops\n')
        n_lines = len(chain.read_text().splitlines())
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--out", tmp_path / "s.csv"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"line {n_lines} is not JSON" in err

    @staticmethod
    def rewrite_draws(chain, out, layout, fault=None):
        """Copy ``chain`` to ``out`` with every draw's field arrays written as
        base64 or as decimal lists, and ``fault`` = (key, index, value) set in
        the first draw."""
        lines = chain.read_text().splitlines()
        for n in range(2, len(lines)):
            obj = json.loads(lines[n])
            arrays = {key: np.frombuffer(base64.b64decode(obj[key]), dtype=dtype).copy()
                      for key, dtype in (("times", "<f8"), ("values", "<f8"), ("is_coal", "u1"))}
            if fault is not None and n == 2:
                key, index, value = fault
                if index is None:
                    obj[key] = value
                else:
                    arrays[key][index] = value
            for key, arr in arrays.items():
                obj[key] = base64.b64encode(arr.tobytes()).decode() if layout == "base64" else arr.tolist()
            lines[n] = json.dumps(obj)
        out.write_text("\n".join(lines) + "\n")
        return out

    def test_decimal_and_base64_layouts_summarize_identically(self, tmp_path):
        chain = self.make_chain(tmp_path)
        assert isinstance(json.loads(chain.read_text().splitlines()[2])["times"], str)
        decimal = self.rewrite_draws(chain, tmp_path / "decimal.jsonl", "decimal")
        assert isinstance(json.loads(decimal.read_text().splitlines()[2])["times"], list)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["summarize", "--chain", chain, "--grid", 40, "--seed", 5, "--out", a]) == 0
        assert run(["summarize", "--chain", decimal, "--grid", 40, "--seed", 5, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("layout", ["base64", "decimal"])
    @pytest.mark.parametrize(
        "fault",
        [("times", 1, np.nan), ("times", -1, np.inf), ("times", 0, 0.0), ("times", 0, -0.2),
         ("values", 0, np.nan), ("values", 1, -np.inf), ("is_coal", 0, 2),
         ("theta", None, np.nan), ("theta", None, 0.0), ("lambda", None, np.nan),
         ("lambda", None, np.inf), ("lambda", None, -1.0)],
        ids=["times-nan", "times-inf", "times-zero", "times-negative", "values-nan", "values-inf",
             "is-coal-2", "theta-nan", "theta-zero", "lambda-nan", "lambda-inf", "lambda-negative"],
    )
    def test_out_of_range_draw_exits_2(self, tmp_path, capsys, layout, fault):
        chain = self.rewrite_draws(self.make_chain(tmp_path), tmp_path / "bad.jsonl", layout, fault)
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert repr(fault[0]) in err
        assert not out.exists()

    def test_chain_without_draws_exits_2(self, tmp_path, capsys):
        chain = self.make_chain(tmp_path)
        chain.write_text("\n".join(chain.read_text().splitlines()[:2]) + "\n")  # meta, header
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--out", tmp_path / "s.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no draws" in err and "Traceback" not in err

    def test_unallocatable_grid_exits_3(self, tmp_path, capsys):
        # 8 PB of grid exceeds the user address space: numpy refuses it before
        # touching any memory, whatever the overcommit setting
        chain = self.make_chain(tmp_path)
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert run(["summarize", "--chain", chain, "--grid", 10**15, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "Traceback" not in err
        assert not out.exists()

    def test_summary_determinism(self, tmp_path):
        chain = self.make_chain(tmp_path)
        a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run(["summarize", "--chain", chain, "--grid", 30, "--seed", 9, "--out", a])
        run(["summarize", "--chain", chain, "--grid", 30, "--seed", 9, "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestExtractCommand:
    def test_extract_matches_library(self, tmp_path):
        tree = tmp_path / "t.nwk"
        tree.write_text(TREE)
        out = tmp_path / "data.json"
        assert run(["extract", "--tree", tree, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["coal_times"] == pytest.approx([0.3, 1.0])
        assert payload["samp_times"] == pytest.approx([0.0, 0.5])
        assert payload["samp_counts"] == [2, 1]

    def test_deep_caterpillar_tree(self, tmp_path, capsys):
        # 3000 tips nested one level per tip: deeper than Python's recursion limit
        n = 3000
        newick = "(A0:1,A1:1)"
        for k in range(2, n):
            newick = f"({newick}:1,A{k}:{k})"
        tree = tmp_path / "cat.nwk"
        tree.write_text(newick + ";")
        out = tmp_path / "data.json"
        assert run(["extract", "--tree", tree, "--out", out]) == 0
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["samp_counts"] == [n]
        assert payload["coal_times"] == pytest.approx(np.arange(1.0, n))
        g = parse_newick(tree.read_text())
        assert parse_newick(g.to_newick()).to_newick() == g.to_newick()
        assert np.allclose(parse_newick(g.to_newick()).internal_heights(), g.internal_heights())

    @pytest.mark.parametrize(
        "newick, dates",
        [(TREE, "A\t2000\nB\tnan\nC\t1999.5\n"), ("(A|inf:1.0,B|inf:1.0);", None)],
    )
    def test_non_finite_tip_date_exits_2(self, tmp_path, capsys, newick, dates):
        tree = tmp_path / "t.nwk"
        tree.write_text(newick)
        out = tmp_path / "data.json"
        argv = ["extract", "--tree", tree, "--out", out]
        if dates is None:
            argv += ["--date-delimiter", "|"]
        else:
            (tmp_path / "dates.tsv").write_text(dates)
            argv += ["--tip-dates", tmp_path / "dates.tsv"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_extracted_json_feeds_infer(self, tmp_path):
        tree = tmp_path / "t.nwk"
        tree.write_text(TREE)
        data = tmp_path / "data.json"
        run(["extract", "--tree", tree, "--out", data])
        out = tmp_path / "chain.jsonl"
        assert run(
            ["infer", "--data", data, "--iters", 50, "--burnin", 10, "--seed", 0,
             "--lambda-hat", 2, "--out", out]
        ) == 0


def _records(tmp_path, stem, reps):
    """Replicate files of a batch, without their meta block."""
    out = []
    for r in range(reps):
        payload = json.loads((tmp_path / f"{stem}_{r:04d}.json").read_text())
        del payload["meta"]
        out.append(payload)
    return out


SIM_INPUTS = {
    "constant": ["--iso", "-n", 5, "--traj", "constant:1", "--lambda", 1, "--record-latent"],
    "boombust-schedule": ["--schedule", "0:3,0.3:2,0.8:2", "--traj", "boombust"],
    "gp-schedule": ["--schedule", "0:3,0.3:2,0.8:2", "--kernel", "bm", "--init-var", 1, "--lambda", 3],
    "gp-ou": ["--iso", "-n", 8, "--kernel", "ou", "--lambda", 4],
}


def test_replicates_parallel_workers_match_serial(tmp_path):
    for name, inputs in SIM_INPUTS.items():
        base = ["simulate", *inputs, "--seed", 11, "--replicates", 7]
        assert run(base + ["--out", tmp_path / f"{name}-ser.json"]) == 0
        assert run(base + ["--workers", 3, "--out", tmp_path / f"{name}-par.json"]) == 0
        assert _records(tmp_path, f"{name}-ser", 7) == _records(tmp_path, f"{name}-par", 7), name
        if "--traj" in inputs:
            ks = [json.loads((tmp_path / f"{name}-{side}_ks_report.json").read_text())
                  for side in ("ser", "par")]
            assert ks[0]["ks_by_event"] == ks[1]["ks_by_event"], name


@pytest.mark.parametrize("name", sorted(SIM_INPUTS))
def test_replicate_files_do_not_depend_on_batch_size(tmp_path, name):
    base = ["simulate", *SIM_INPUTS[name], "--seed", 5]
    assert run(base + ["--replicates", 6, "--out", tmp_path / "big.json"]) == 0
    assert run(base + ["--replicates", 2, "--out", tmp_path / "small.json"]) == 0
    assert run(base + ["--out", tmp_path / "one.json"]) == 0
    big = _records(tmp_path, "big", 6)
    assert _records(tmp_path, "small", 2) == big[:2]
    one = json.loads((tmp_path / "one.json").read_text())
    del one["meta"]
    assert {"replicate": 0, **one} == big[0]


def test_batch_proposal_cap_exits_3_and_writes_nothing(tmp_path, capsys):
    # lam 2 against N_e = 1 rejects half the candidates: among 20 replicates
    # some event needs more than 3 proposals
    code = run(
        ["simulate", "--iso", "-n", 4, "--traj", "constant:1", "--lambda", 2,
         "--proposal-cap", 3, "--replicates", 20, "--seed", 0, "--out", tmp_path / "cap.json"]
    )
    assert code == 3
    assert "proposal cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--traj", "constant:1", "--lambda", "1e308", "-n", 5], "thinning clock rate inf"),
        (["--kernel", "ou", "--lambda", "1e308", "-n", 5], "thinning clock rate inf"),
        (["--kernel", "ou", "--lambda", "1e-320", "-n", 3], "thinning clock rate"),
        (["--traj", "constant:1", "--lambda", "1e-320", "-n", 5], "thinning clock rate"),
        (["--traj", "expgrowth:25,-5", "--window", 1, "-n", 10], "1/N_e vanished"),
    ],
    ids=["rate-overflows", "gp-rate-overflows", "gp-step-overflows", "step-overflows", "inv-ne-underflows"],
)
def test_clock_outside_float_range_exits_3(tmp_path, capsys, argv, cause):
    # the clock cannot advance (or 1/N_e is 0): the real cause is named,
    # well before the proposal cap, and numpy warns of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["simulate", "--iso", *argv, "--proposal-cap", 1000, "--out", tmp_path / "x.json"])
    assert code == 3
    err = capsys.readouterr().err
    assert cause in err and "proposal cap" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--iso", "-n", 10, "--traj", "boombust:1,1,1", "--window", "1e-300"],
         "replicate 0 crossed 20001 envelope windows in a row without a candidate, up to t="),
        (["--schedule", "0:6,0.3:4,0.9:5", "--kernel", "bm", "--theta", 2, "--lambda", 4,
          "--replicates", 20, "--seed", 11],
         "replicate 4 retained more than 100000 GP points, up to t="),
    ],
    ids=["tiny-window", "gp-sunken-f"],
)
def test_simulate_runaway_ends_at_its_bound(tmp_path, capsys, argv, cause):
    # under default flags each run once went on for hours: every round moved
    # the walk by 1e-300, or some replicates' Brownian f sank so low that they
    # kept almost every candidate.  Each now ends at its own bound, far short
    # of the proposal cap, with one line that names the replicate and the time.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["simulate", *argv, "--out", tmp_path / "x.json"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"runtime error: {cause}")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, reps",
    [
        # the last pair's window holds a candidate with probability
        # 1 - exp(-1e-4): empty runs average 1e4 windows, and some replicate
        # of the batch passes 20000 of them
        (["--iso", "-n", 10, "--traj", "constant:10", "--window", 0.001], 20),
        # the batch retains about 590000 GP points, no replicate more than 15000
        (["--iso", "-n", 1000, "--kernel", "ou", "--theta", 2, "--lambda", 5], 250),
    ],
    ids=["long-empty-run", "large-gp-batch"],
)
def test_simulate_bounds_pass_valid_batches(tmp_path, argv, reps):
    assert run(["simulate", *argv, "--replicates", reps, "--out", tmp_path / "x.json"]) == 0
    assert len(list(tmp_path.glob("x_0*.json"))) == reps


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--iso", "-n", 5, "--kernel", "bm", "--lambda", 2, "--replicates", 0], "--replicates"),
        (["simulate", "--iso", "-n", 5, "--kernel", "bm", "--lambda", 2, "--replicates", -2], "--replicates"),
        (["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--replicates", -2], "--replicates"),
        (["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--replicates", 4, "--workers", 0], "--workers"),
        (["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--replicates", 4, "--workers", -4], "--workers"),
        (["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--replicates", "many"], "--replicates"),
        (["infer", "--data", "d.json", "--chains", 0], "--chains"),
        (["infer", "--data", "d.json", "--chains", 2, "--workers", -1], "--workers"),
        (["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--proposal-cap", 0], "--proposal-cap"),
    ],
)
def test_count_flags_below_one_exit_2(tmp_path, capsys, argv, flag):
    # argument handling only: the parser rejects the value before any work
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", tmp_path / "x.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--iso", "-n", 5, "--kernel", "ou", "--theta", 0, "--lambda", 2],
        ["simulate", "--iso", "-n", 5, "--kernel", "ou", "--phi", -1, "--lambda", 2],
        ["simulate", "--iso", "-n", 5, "--kernel", "bm", "--init-var", -1, "--lambda", 2],
        ["simulate", "--iso", "-n", 5, "--kernel", "bm", "--lambda", -2],
        ["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--lambda", 0],
        ["infer", "--tree", "t.nwk", "--theta", 0],
        ["infer", "--tree", "t.nwk", "--kernel", "ou", "--phi", -1],
    ],
)
def test_out_of_range_flag_values_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.nwk").write_text(TREE)
    assert run(argv + ["--out", "x.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.nwk"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--iso", "-n", 5, "--traj", "constant:-1"],
        ["simulate", "--iso", "-n", 5, "--traj", "expgrowth:0,5"],
        ["simulate", "--iso", "-n", 1, "--traj", "constant:1", "--lambda", 1],
        ["simulate", "--schedule", "0:3,0.5:-2", "--traj", "constant:1", "--lambda", 1],
        ["simulate", "--iso", "-n", 5, "--traj", "expgrowth:25,5", "--window", -1],
        ["infer", "--tree", "t.nwk", "--halfwidth", -1],
        ["infer", "--tree", "t.nwk", "--halfwidth", 0],
    ],
    ids=["constant-size", "expgrowth-n0", "one-sample", "negative-count", "window", "halfwidth", "zero-halfwidth"],
)
def test_bad_parameter_values_exit_2(tmp_path, capsys, monkeypatch, argv):
    # a parameter out of its range is an input error, found before any output
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.nwk").write_text(TREE)
    assert run(argv + ["--out", "x.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.nwk"]


def _exit_code(argv) -> int:
    """Exit code of one in-process call; the parser's own rejections exit
    through SystemExit."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


SIM_GP = ["simulate", "--iso", "-n", 5, "--kernel", "ou", "--lambda", 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--iso", "-n", 5, "--traj", "constant:nan"],
        ["simulate", "--iso", "-n", 5, "--traj", "constant:inf", "--lambda", 1],
        ["simulate", "--iso", "-n", 5, "--traj", "expgrowth:nan,5"],
        ["simulate", "--iso", "-n", 5, "--traj", "boombust:nan,0.5,2"],
        ["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--lambda", "nan"],
        ["simulate", "--iso", "-n", 5, "--traj", "expgrowth:25,5", "--window", "nan"],
        SIM_GP + ["--phi", "nan"],
        SIM_GP + ["--theta", "nan"],
        ["simulate", "--iso", "-n", 5, "--kernel", "bm", "--lambda", 2, "--init-var", "nan"],
        SIM_GP + ["--theta", "inf"],
        ["infer", "--tree", "t.nwk", "--lambda-hat", "nan"],
        ["infer", "--tree", "t.nwk", "--lambda-hat", "inf"],
        ["infer", "--tree", "t.nwk", "--alpha", "nan"],
        ["infer", "--tree", "t.nwk", "--beta=-inf"],
        ["infer", "--tree", "t.nwk", "--theta", "nan"],
        ["infer", "--tree", "t.nwk", "--kernel", "ou", "--phi", "nan"],
        ["infer", "--tree", "t.nwk", "--init-var", "nan"],
        ["infer", "--tree", "t.nwk", "--eps", "nan"],
        ["infer", "--tree", "t.nwk", "--halfwidth", "inf"],
        ["summarize", "--chain", "c.jsonl", "--grid-max", "nan"],
    ],
)
def test_non_finite_values_exit_2(tmp_path, capsys, monkeypatch, argv):
    # rejected before any work: the simulators never start on a nan bound
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.nwk").write_text(TREE)
    assert _exit_code(argv + ["--out", "x.json"]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.nwk"]


BAD_SCHEDULES = ["0:1", "0:5,inf:3", "0:5,nan:3", "0.1:5,0.5:3", "0:5,0:3", "0:0,1:3"]


@pytest.mark.parametrize("schedule", BAD_SCHEDULES)
def test_bad_schedule_exits_2_in_simulate_and_infer(tmp_path, capsys, schedule):
    from coalgp.cli import _parse_schedule

    out = tmp_path / "x.json"
    argv = ["simulate", "--schedule", schedule, "--traj", "constant:1", "--lambda", 1, "--out", out]
    assert run(argv) == 2
    samp_times, samp_counts = _parse_schedule(schedule)
    coal = list(range(2, 1 + sum(samp_counts)))  # n - 1 times past every sample
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"coal_times": coal, "samp_times": samp_times, "samp_counts": samp_counts}))
    assert run(["infer", "--data", data, "--iters", 20, "--burnin", 5, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "obj",
    [
        {"coal_times": [0.4, float("inf")], "samp_times": [0.0], "samp_counts": [3]},
        {"coal_times": [0.4, float("nan")], "samp_times": [0.0], "samp_counts": [3]},
        {"coal_times": [], "samp_times": [0.0], "samp_counts": [1]},
    ],
    ids=["infinite-root", "nan-root", "one-sample"],
)
def test_bad_data_exits_2_before_the_chain(tmp_path, capsys, obj):
    data, out = tmp_path / "d.json", tmp_path / "c.jsonl"
    data.write_text(json.dumps(obj))
    assert run(["infer", "--data", data, "--iters", 20, "--burnin", 5, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


def test_infer_theta_sets_the_starting_precision(tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text(TREE)
    draws = []
    for theta in (1, 5):
        out = tmp_path / f"chain{theta}.jsonl"
        assert run(
            ["infer", "--tree", tree, "--iters", 10, "--burnin", 0, "--thin", 1,
             "--theta", theta, "--seed", 2, "--out", out]
        ) == 0
        draws.append([json.loads(line) for line in out.read_text().splitlines()[2:]])
    assert len(draws[0]) == len(draws[1]) == 10
    assert draws[0] != draws[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["summarize", "--chain", "d", "--out", "s.csv"],
        ["infer", "--data", "d", "--out", "c.jsonl"],
        ["simulate", "--iso", "-n", 5, "--traj", "constant:1", "--lambda", 1, "--out", "d"],
    ],
    ids=["summarize-chain", "infer-data", "simulate-out"],
)
def test_directory_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    # a directory where a file is expected is an input error, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_multi_chain_files(tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text(TREE)
    out = tmp_path / "chain.jsonl"
    code = run(
        ["infer", "--tree", tree, "--iters", 60, "--burnin", 10, "--thin", 5,
         "--chains", 2, "--seed", 3, "--lambda-hat", 2, "--out", out]
    )
    assert code == 0
    files = sorted(tmp_path.glob("chain_chain*.jsonl"))
    assert len(files) == 2
    # distinct seeds, distinct draws
    a = json.loads(files[0].read_text().splitlines()[2])
    b = json.loads(files[1].read_text().splitlines()[2])
    assert a["theta"] != b["theta"]


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("COALGP_OUTDIR", str(tmp_path / "sandbox"))
    assert run(
        ["simulate", "--iso", "-n", 4, "--traj", "constant:1", "--lambda", 1,
         "--seed", 0, "--out", "nested/sim.json"]
    ) == 0
    assert (tmp_path / "sandbox" / "nested" / "sim.json").exists()


def test_commands_import_no_scipy(tmp_path):
    # infer, summarize and simulate with KS run on numpy alone, without numpy.ma
    script = textwrap.dedent(
        """
        import json, sys
        import coalgp.cli

        def call(*argv):
            code = coalgp.cli.main([str(a) for a in argv])
            assert code == 0, (argv, code)

        data, chain = sys.argv[1] + "/d.json", sys.argv[1] + "/c.jsonl"
        with open(data, "w") as fh:
            json.dump({"coal_times": [0.4, 1.1], "samp_times": [0.0], "samp_counts": [3]}, fh)
        call("infer", "--data", data, "--iters", 5, "--burnin", 1, "--thin", 1, "--out", chain)
        call("summarize", "--chain", chain, "--out", sys.argv[1] + "/s.csv")
        call("simulate", "--iso", "-n", 10, "--traj", "constant:1", "--lambda", 1,
             "--replicates", 50, "--out", sys.argv[1] + "/r.json")
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "r_ks_report.json").exists()


def test_ctrl_c_exits_130_without_traceback(tmp_path):
    data, out = tmp_path / "d.json", tmp_path / "c.jsonl"
    data.write_text(json.dumps({"coal_times": [0.4, 1.1], "samp_times": [0.0], "samp_counts": [3]}))
    # a parent that ignores SIGINT passes that on, and Python then leaves
    # SIGINT ignored: restore the handler a terminal session would have
    script = (
        "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
        "from coalgp.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "infer", "--data", str(data), "--iters", "100000", "--out", str(out)],
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        first = proc.stderr.readline()
        assert "iteration" in first, first
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    assert err == "interrupted\n"
    assert not out.exists()


def test_import_cli_loads_no_process_pool():
    # the pool machinery loads only for --workers > 1
    script = (
        "import sys, coalgp.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
