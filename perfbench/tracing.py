"""Traced in-process run: spans around each coalgp module's public functions.

The wrappers are installed from the benchmark's own files by replacing the
binding in the module (or class) that calls the function, and are removed
again afterwards.  Spans stay in memory as parallel lists (name, start, end,
parent span, run id) and are written out once the run ends.  A target that no
longer exists is skipped with a note, and the metrics that depend on it are
left out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np
from workloads import command_problems

LAYER_MAP = json.loads((Path(__file__).parent / "layer_map.json").read_text())
UNITS = {m["name"]: m["unit"] for m in LAYER_MAP["per_layer"]}
COVERAGE_FLOOR = 0.9

MCMC_KERNELS = ("rj", "location", "ess", "theta", "lambda", "logpost")
PRECISION_METHODS = ("_cholesky", "log_det", "quad_form", "matvec", "sample_zero_mean", "dense")
TRAJECTORY_METHODS = {
    "inv_ne": "trajectories.inv_ne",
    "sup_inv_ne": "trajectories.sup_inv_ne",
    "solve_inv_ne_integral": "trajectories.solve",
}


def _record_sim(counts, args, kwargs, result):
    counts["simulate.proposals"] += getattr(result, "n_proposals", 0)
    counts["simulate.events"] += len(getattr(result, "coal_times", ()))


def _record_grid(counts, args, kwargs, result):
    counts["genealogy.intervals"] = max(counts["genealogy.intervals"], getattr(result, "n_intervals", 0))


# (owner, attribute, span name, hook called with the result)
TARGETS = [
    ("coalgp.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("coalgp.cli", "cmd_infer", "cli.cmd_infer", None),
    ("coalgp.cli", "cmd_summarize", "cli.cmd_summarize", None),
    ("coalgp.cli", "run_chain", "mcmc.run_chain", None),
    ("coalgp.mcmc", "rj_update", "mcmc.rj", None),
    ("coalgp.mcmc", "location_update", "mcmc.location", None),
    ("coalgp.mcmc", "ess_update", "mcmc.ess", None),
    ("coalgp.mcmc", "gibbs_theta", "mcmc.theta", None),
    ("coalgp.mcmc", "mh_lambda", "mcmc.lambda", None),
    ("coalgp.mcmc", "log_augmented_posterior", "mcmc.logpost", None),
    ("coalgp.mcmc", "conditional_draw_at", "gp_prior.cond_draw", None),
    ("coalgp.gp_prior.LatentField", "insert", "gp_prior.field_edit", None),
    ("coalgp.gp_prior.LatentField", "remove", "gp_prior.field_edit", None),
    ("coalgp.mcmc", "build_precision", "gp_prior.precision", None),
    ("coalgp.gp_prior", "build_precision", "gp_prior.precision", None),
    ("coalgp.gp_prior.BrownianMotionKernel", "structure_tridiag", "gp_prior.precision", None),
    ("coalgp.gp_prior.OrnsteinUhlenbeckKernel", "structure_tridiag", "gp_prior.precision", None),
    *[("coalgp.gp_prior.TridiagPrecision", m, "gp_prior.precision", None) for m in PRECISION_METHODS],
    ("coalgp.summarize", "predictive_grid_draw", "gp_prior.predictive", None),
    ("coalgp.mcmc", "log_augmented_likelihood", "likelihood.aug_lik", None),
    ("coalgp.cli", "parse_newick", "genealogy.parse", None),
    ("coalgp.cli", "extract_coalescent_data", "genealogy.extract", None),
    ("coalgp.mcmc", "build_interval_grid", "genealogy.grid", _record_grid),
    ("coalgp.cli", "simulate_hetero_thinning", "simulate.thin", _record_sim),
    ("coalgp.cli", "simulate_hetero_thinning_gp", "simulate.gp", _record_sim),
    ("coalgp.cli", "simulate_time_transform", "simulate.oracle", None),
    ("coalgp.cli", "ks_against_oracle", "simulate.ks", None),
    ("coalgp.cli", "summarize", "summarize.summarize", None),
    ("coalgp.mcmc.ChainOutput", "write_jsonl", "cli.chain_write", None),
    ("coalgp.mcmc.ChainOutput", "read_jsonl", "cli.chain_read", None),
]


def _resolve(path: str):
    """Import ``package.module[.Class]``; None when any part is missing."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Span recorder plus the wrappers it installs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.run_id = 0
        self._stack: list[int] = []
        self.counts: dict[str, float] = {
            "simulate.proposals": 0, "simulate.events": 0, "genealogy.intervals": 0,
            "mcmc.ess_loglik_evals": 0,
        }
        self.installed: set[str] = set()
        self.notes: list[str] = []
        self._patches: list = []

    def _wrap(self, span: str, fn, hook):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, starts, ends, parents, runs, stack = (
            self.name, self.start, self.end, self.parent, self.run, self._stack
        )
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return timed

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, owner_path: str, attr: str, span: str, hook=None) -> bool:
        owner = _resolve(owner_path)
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            self.notes.append(f"{owner_path}.{attr} not found; metrics from span {span} left out")
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(span, raw.__func__, hook))
        else:
            replacement = self._wrap(span, raw, hook)
        self._patch(owner, attr, replacement)
        self.installed.add(span)
        return True

    def install_all(self):
        """Every target, the trajectory methods and the slice-sampler loglik counter."""
        for owner, attr, span, hook in TARGETS:
            self.install(owner, attr, span, hook)
        base = _resolve("coalgp.trajectories.Trajectory")
        subclasses = _all_subclasses(base) if isinstance(base, type) else []
        if not subclasses:
            self.notes.append("no Trajectory subclasses found; trajectories metrics left out")
        for cls in subclasses:
            for attr, span in TRAJECTORY_METHODS.items():
                if attr in cls.__dict__:
                    self.install(f"{cls.__module__}.{cls.__qualname__}", attr, span)
        self._count_ess_loglik()

    def _count_ess_loglik(self):
        mcmc = _resolve("coalgp.mcmc")
        step = getattr(mcmc, "elliptical_slice_step", None)
        if step is None or "loglik" not in inspect.signature(step).parameters:
            self.notes.append("elliptical_slice_step(loglik=...) not found; ess_loglik_evals left out")
            return
        sig = inspect.signature(step)
        counts = self.counts

        @functools.wraps(step)
        def counted_step(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            inner = bound.arguments["loglik"]

            def loglik(v):
                counts["mcmc.ess_loglik_evals"] += 1
                return inner(v)

            bound.arguments["loglik"] = loglik
            return step(*bound.args, **bound.kwargs)

        self._patch(mcmc, "elliptical_slice_step", counted_step)
        self.installed.add("mcmc.ess_loglik")

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def arrays(self):
        return (
            np.asarray(self.name, dtype=np.int32),
            np.asarray(self.start, dtype=float),
            np.asarray(self.end, dtype=float),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.run, dtype=np.int32),
        )

    def save(self, path: Path):
        name, start, end, parent, run = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), name=name, start=start, end=end,
                            parent=parent, run=run)


def _all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _all_subclasses(sub)
    return out


class SpanTable:
    """Durations, self times and group totals over recorded spans."""

    def __init__(self, names, name, start, end, parent):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child_time[: len(self.dur)]

    def _mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(span)

    def count(self, span: str) -> int:
        return int(self._mask(span).sum())

    def total(self, span: str) -> float:
        return float(self.dur[self._mask(span)].sum())

    def self_total(self, span: str) -> float:
        return float(self.self_time[self._mask(span)].sum())

    def outer_total(self, span: str) -> float:
        """Total of the spans whose parent is not the same kind (no double counting)."""
        mask = self._mask(span)
        if not mask.any():
            return 0.0
        nid = self.names.index(span)
        parent_name = np.where(self.parent >= 0, self.name[np.maximum(self.parent, 0)], -1)
        return float(self.dur[mask & (parent_name != nid)].sum())

    def mean(self, span: str) -> float:
        n = self.count(span)
        return self.total(span) / n if n else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _chain_facts(path: Path | None) -> dict:
    """Iterations, draw count, acceptance, mean field size and size of a chain file."""
    if path is None or not path.exists():
        return {}
    header, sizes = {}, []
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            if obj.get("type") == "header":
                header = obj
            elif "times" in obj:
                sizes.append(len(obj["times"]))
    return {
        "iterations": header.get("config", {}).get("iterations", 0),
        "draws": header.get("n_draws", 0),
        "acceptance": header.get("acceptance", {}),
        "field_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "bytes": path.stat().st_size,
    }


def layer_metrics(spans: SpanTable, counts: dict, chain: dict, overhead: float, installed: set):
    """Per-layer metrics; those whose span was never installed are left out."""
    iters = chain.get("iterations", 0)
    draws = chain.get("draws", 0)
    thin_reps = spans.count("simulate.thin")
    reps = thin_reps + spans.count("simulate.gp")

    def per_iter_ms(total):
        return _ratio(total * 1e3, iters)

    run_chain = spans.total("mcmc.run_chain")
    acceptance = chain.get("acceptance", {})
    m = {}
    needs = {}

    def put(name, value, *spans_needed):
        needs[name] = spans_needed
        m[name] = float(value)

    for k in MCMC_KERNELS:
        put(f"mcmc.{k}_ms_per_iter", per_iter_ms(spans.total(f"mcmc.{k}")), f"mcmc.{k}")
    put("mcmc.driver_ms_per_iter", per_iter_ms(spans.self_total("mcmc.run_chain")),
        "mcmc.run_chain", *(f"mcmc.{k}" for k in MCMC_KERNELS))
    put("mcmc.span_coverage", _ratio(sum(spans.total(f"mcmc.{k}") for k in MCMC_KERNELS), run_chain),
        "mcmc.run_chain", *(f"mcmc.{k}" for k in MCMC_KERNELS))
    put("mcmc.ess_loglik_evals_per_iter", _ratio(counts["mcmc.ess_loglik_evals"], iters), "mcmc.ess_loglik")
    for k in ("rj_add", "rj_remove", "location", "lambda"):
        put(f"mcmc.accept.{k}", acceptance.get(k, 0.0))
    put("mcmc.field_size_mean", chain.get("field_size_mean", 0.0))
    put("gp_prior.cond_draw_calls_per_iter", _ratio(spans.count("gp_prior.cond_draw"), iters), "gp_prior.cond_draw")
    put("gp_prior.cond_draw_us", spans.mean("gp_prior.cond_draw") * 1e6, "gp_prior.cond_draw")
    put("gp_prior.field_edit_calls_per_iter", _ratio(spans.count("gp_prior.field_edit"), iters), "gp_prior.field_edit")
    put("gp_prior.field_edit_us", spans.mean("gp_prior.field_edit") * 1e6, "gp_prior.field_edit")
    put("gp_prior.precision_ms_per_iter", per_iter_ms(spans.outer_total("gp_prior.precision")), "gp_prior.precision")
    put("gp_prior.predictive_ms_per_draw", _ratio(spans.total("gp_prior.predictive") * 1e3, draws), "gp_prior.predictive")
    put("likelihood.aug_lik_ms_per_iter", per_iter_ms(spans.total("likelihood.aug_lik")), "likelihood.aug_lik")
    put("genealogy.parse_ms", spans.total("genealogy.parse") * 1e3, "genealogy.parse")
    put("genealogy.extract_ms", spans.total("genealogy.extract") * 1e3, "genealogy.extract")
    put("genealogy.grid_ms", spans.total("genealogy.grid") * 1e3, "genealogy.grid")
    put("genealogy.intervals", counts["genealogy.intervals"], "genealogy.grid")
    for key, span in (("inv_ne", "trajectories.inv_ne"), ("sup_inv_ne", "trajectories.sup_inv_ne")):
        put(f"trajectories.{key}_calls_per_rep", _ratio(spans.count(span), thin_reps), span, "simulate.thin")
        put(f"trajectories.{key}_us", spans.mean(span) * 1e6, span)
    put("trajectories.solve_us", spans.mean("trajectories.solve") * 1e6, "trajectories.solve")
    put("simulate.thin_ms_per_rep", spans.mean("simulate.thin") * 1e3, "simulate.thin")
    put("simulate.gp_ms_per_rep", spans.mean("simulate.gp") * 1e3, "simulate.gp")
    put("simulate.oracle_ms_per_rep", spans.mean("simulate.oracle") * 1e3, "simulate.oracle")
    put("simulate.ks_ms", spans.total("simulate.ks") * 1e3, "simulate.ks")
    put("simulate.proposals_per_rep", _ratio(counts["simulate.proposals"], reps), "simulate.thin", "simulate.gp")
    put("simulate.accept_ratio", _ratio(counts["simulate.events"], counts["simulate.proposals"]),
        "simulate.thin", "simulate.gp")
    put("summarize.ms_per_draw", _ratio(spans.total("summarize.summarize") * 1e3, draws), "summarize.summarize")
    put("summarize.self_ms", spans.self_total("summarize.summarize") * 1e3, "summarize.summarize")
    put("cli.chain_write_mb_per_s", _ratio(chain.get("bytes", 0) / 1e6, spans.total("cli.chain_write")), "cli.chain_write")
    put("cli.chain_read_mb_per_s", _ratio(chain.get("bytes", 0) / 1e6, spans.total("cli.chain_read")), "cli.chain_read")
    put("cli.chain_bytes_per_draw", _ratio(chain.get("bytes", 0), draws))
    put("cli.replicate_write_ms_per_rep", _ratio(spans.self_total("cli.cmd_simulate") * 1e3, reps), "cli.cmd_simulate")
    put("trace.overhead_ratio", overhead)

    notes = []
    for name, spans_needed in needs.items():
        missing = [s for s in spans_needed if s not in installed]
        if missing:
            del m[name]
            notes.append(f"{name} left out: {', '.join(missing)} not traced")
    return m, notes


def _run_in_process(argv) -> tuple[int, str]:
    """coalgp.cli.main(argv) with stderr captured; a raised exception is a failure."""
    from coalgp import cli

    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the benchmark reports it and keeps going
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def traced_run(workload, untraced, spans_path: Path):
    """Run the command sequence in-process under the tracer.

    Returns the per-layer metrics, notes, and one problem list per command.
    """
    tracer = Tracer()
    tracer.install_all()
    if workload.reset is not None:
        workload.reset()
    walls, problems = [], []
    try:
        for run_id, cmd in enumerate(workload.commands):
            tracer.run_id = run_id
            t0 = time.perf_counter()
            code, stderr = _run_in_process(cmd.argv)
            walls.append(time.perf_counter() - t0)
            problems.append(command_problems(cmd, code, stderr))
    finally:
        tracer.restore()
    tracer.save(spans_path)

    main = [i for i, c in enumerate(workload.commands) if c.kind == workload.main]
    overhead = _ratio(sum(walls[i] for i in main), sum(untraced[i].wall_s for i in main))
    chain = _chain_facts(next((c.chain for c in workload.commands if c.chain is not None), None))
    name, start, end, parent, _ = tracer.arrays()
    spans = SpanTable(tracer.names, name, start, end, parent)
    metrics, notes = layer_metrics(spans, tracer.counts, chain, overhead, tracer.installed)
    notes = tracer.notes + notes
    coverage = metrics.get("mcmc.span_coverage")
    if spans.count("mcmc.run_chain") and coverage is not None and coverage < COVERAGE_FLOOR:
        notes.append(f"mcmc kernel spans cover {coverage:.3f} of run_chain, below {COVERAGE_FLOOR}")
    return metrics, notes, problems
