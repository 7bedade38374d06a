"""Seeded inputs, command sequences and output checks for the benchmark workloads.

Every workload is a closed loop: one client runs one ``coalgp`` command at a
time with ``--workers 1`` and ``--chains 1``.  All inputs derive from the
workload seed; the CLI only ever sees the generated files and seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KS_ALPHA = 0.001
GRID = 150

# serial-n1000: 1000 tips over 50 sampling times, OU prior, small thin.  The
# chain is short and uses lambda proposal width 0.1: with the default width
# (1.0) lambda random-walks away from its start at 10 by a seed-dependent
# amount, which changes the field size and the cost per iteration between
# seeds; width 0.1 keeps every seed at the same operating point.
SERIAL_TIMES, SERIAL_PER_TIME, SERIAL_SPAN = 50, 20, 2.0
SERIAL_ITERS, SERIAL_BURNIN, SERIAL_THIN = 40, 20, 2
SERIAL_HALFWIDTH = 0.1

# sim-batch: criterion-1 scenarios at n=10 plus one OU GP batch at n=100.
SIM_N = 10
SIM_BATCHES = (
    ("constant", ["--traj", "constant:1", "--lambda", "1"], 700),
    ("expgrowth", ["--traj", "expgrowth:25,5"], 700),
    ("boombust", ["--traj", "boombust"], 700),
)
SIM_GP_N, SIM_GP_REPS = 100, 70
SIM_GP_ARGS = ["--kernel", "ou", "--theta", "1", "--phi", "1", "--lambda", "5"]

WORKLOADS = ("serial-n1000", "sim-batch")


def derived_seed(seed: int, stream: int) -> int:
    """A 32-bit seed for one command, split off the workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def ks_critical(n_a: int, n_b: int, alpha: float) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical distance at level alpha."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))


@dataclass
class Command:
    """One CLI invocation and the check of what it wrote.

    ``kind`` is the subcommand; ``check`` returns a list of problems (empty
    when the output is correct); ``replicates`` counts the replicates a
    simulate command writes.
    """

    kind: str
    argv: list
    check: object
    replicates: int = 0
    chain: Path | None = None


@dataclass
class Workload:
    name: str
    commands: list
    main: str  # subcommand whose traced wall time gives the tracing overhead
    record: dict = field(default_factory=dict)
    reset: object = None  # removes outputs that must not survive a repeat


# --- input generation --------------------------------------------------------


def kingman_tree(rng: np.random.Generator, samp_times, per_time: int, ne: float = 1.0):
    """Random coalescent genealogy under constant N_e with serial sampling.

    Lineages merge uniformly at random (Kingman topology) at exponential
    waiting times; ``per_time`` tips join at each sampling time.  Returns the
    root TreeNode, the coalescent times and the sampling schedule.
    """
    from coalgp.genealogy import TreeNode

    samp_times = [float(t) for t in samp_times]
    lineages: list = []
    coal: list[float] = []
    label = 0

    def add_tips(t):
        nonlocal label
        for _ in range(per_time):
            node = TreeNode(label=f"s{label:04d}")
            node.height = t
            lineages.append(node)
            label += 1

    add_tips(samp_times[0])
    i, t = 0, samp_times[0]
    while True:
        k = len(lineages)
        nxt = samp_times[i + 1] if i + 1 < len(samp_times) else math.inf
        if k < 2:
            if math.isinf(nxt):
                break
            i, t = i + 1, nxt
            add_tips(t)
            continue
        t_new = t + rng.exponential(ne / (k * (k - 1) / 2.0))
        if t_new >= nxt:
            i, t = i + 1, nxt
            add_tips(t)
            continue
        a, b = sorted(rng.choice(k, size=2, replace=False), reverse=True)
        left, right = lineages.pop(a), lineages.pop(b)
        for child in (left, right):
            child.branch_length = t_new - child.height
        parent = TreeNode(children=[left, right])
        parent.height = t_new
        lineages.append(parent)
        coal.append(t_new)
        t = t_new
    counts = [per_time] * len(samp_times)
    return lineages[0], np.asarray(coal), np.asarray(samp_times), np.asarray(counts)


def write_serial_inputs(seed: int, workdir: Path) -> dict:
    """Write the serial-n1000 Newick tree and tip-date table; verify extraction."""
    from coalgp.genealogy import Genealogy, extract_coalescent_data, parse_newick, read_tip_dates

    rng = np.random.default_rng(derived_seed(seed, 100))
    later = np.sort(rng.uniform(0.0, SERIAL_SPAN, SERIAL_TIMES - 1))
    root, coal, samp_times, samp_counts = kingman_tree(
        rng, np.concatenate([[0.0], later]), SERIAL_PER_TIME
    )
    g = Genealogy(root)
    tree_path, dates_path = workdir / "tree.nwk", workdir / "tip_dates.tsv"
    tree_path.write_text(g.to_newick() + "\n")
    dates_path.write_text("".join(f"{tip.label}\t{2000.0 - tip.height!r}\n" for tip in g.tips))

    parsed = parse_newick(tree_path.read_text(), tip_dates=read_tip_dates(dates_path.read_text()))
    data = extract_coalescent_data(parsed)
    if not (
        len(data.coal_times) == len(coal)
        and np.allclose(data.coal_times, coal, rtol=0.0, atol=1e-9)
        and np.allclose(data.samp_times, samp_times, rtol=0.0, atol=1e-9)
        and np.array_equal(data.samp_counts, samp_counts)
    ):
        raise RuntimeError("extract does not give back the generated coalescent data")
    return {"tips": int(samp_counts.sum()), "sampling_times": len(samp_times),
            "coalescent_events": len(coal), "tmrca": float(coal[-1])}


# --- output checks -----------------------------------------------------------


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_coal_times(path: Path, n: int) -> list:
    """A simulation record must hold n-1 strictly ascending coalescent times."""
    ct = np.asarray(_read_json(path).get("coal_times", []), dtype=float)
    if len(ct) != n - 1 or not np.all(np.isfinite(ct)) or np.any(np.diff(ct) <= 0):
        return [f"{path.name}: expected {n - 1} ascending coal_times, got {len(ct)}"]
    return []


def chain_problems(path: Path, iters: int, burnin: int, thin: int) -> list:
    """Header draw count matches the config and every log posterior is finite."""
    problems = []
    expected = len(range(burnin, iters, thin))
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    header = next((obj for obj in lines if obj.get("type") == "header"), None)
    draws = [obj for obj in lines if "log_posterior" in obj]
    if header is None or header.get("n_draws") != expected or len(draws) != expected:
        problems.append(f"{path.name}: expected {expected} draws")
    if not all(math.isfinite(d["log_posterior"]) for d in draws):
        problems.append(f"{path.name}: non-finite log_posterior")
    return problems


def summary_problems(path: Path) -> list:
    """GRID finite rows with lo95 <= median <= hi95."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (GRID, 5) or not np.all(np.isfinite(rows[:, :4])):
        return [f"{path.name}: expected {GRID} finite rows"]
    lo, md, hi = rows[:, 2], rows[:, 1], rows[:, 3]
    if np.any(lo > md) or np.any(md > hi):
        return [f"{path.name}: band not ordered lo95 <= median <= hi95"]
    return []


def batch_problems(out: Path, reps: int, n: int, ks: bool) -> list:
    """Expected replicate files with n-1 ascending times; KS below its critical value."""
    stem = out.with_suffix("")
    files = sorted(out.parent.glob(f"{stem.name}_[0-9]*{out.suffix}"))
    problems = []
    if len(files) != reps:
        problems.append(f"{stem.name}: expected {reps} replicate files, found {len(files)}")
    for f in files:
        problems += check_coal_times(f, n)
    if ks:
        report = Path(f"{stem}_ks_report.json")
        ks_max = _read_json(report)["ks_max"] if report.exists() else math.inf
        crit = ks_critical(reps, reps, KS_ALPHA / (n - 1))
        if not ks_max < crit:
            problems.append(f"{stem.name}: ks_max {ks_max:.4f} not below {crit:.4f}")
    return problems


class ChainDigest:
    """Chain files must be byte-identical across repeats within a run."""

    def __init__(self):
        self.first: dict = {}

    def problems(self, path: Path) -> list:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.first.setdefault(str(path), digest) != digest:
            return [f"{path.name}: differs from the first repeat"]
        return []


def command_problems(cmd: Command, returncode: int, stderr: str) -> list:
    """An operation fails on a non-zero exit, a traceback, or a failed output check."""
    problems = [f"exit code {returncode}"] if returncode != 0 else []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if not problems:
        try:
            problems = cmd.check()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"output unreadable: {exc}"]
    return [f"{cmd.kind}: {p}" for p in problems]


# --- workloads ---------------------------------------------------------------


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs under ``workdir`` and its command sequence."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "serial-n1000":
        record = write_serial_inputs(seed, workdir)
        chain, summary = workdir / "chain.jsonl", workdir / "summary.csv"
        digests = ChainDigest()
        infer = Command(
            "infer",
            ["infer", "--tree", str(workdir / "tree.nwk"), "--tip-dates", str(workdir / "tip_dates.tsv"),
             "--kernel", "ou", "--iters", str(SERIAL_ITERS), "--burnin", str(SERIAL_BURNIN),
             "--thin", str(SERIAL_THIN), "--halfwidth", str(SERIAL_HALFWIDTH), "--workers", "1",
             "--chains", "1", "--seed", str(derived_seed(seed, 2)), "--out", str(chain)],
            lambda: chain_problems(chain, SERIAL_ITERS, SERIAL_BURNIN, SERIAL_THIN) + digests.problems(chain),
            chain=chain,
        )
        summ = Command(
            "summarize",
            ["summarize", "--chain", str(chain), "--grid", str(GRID), "--seed", str(derived_seed(seed, 3)),
             "--out", str(summary)],
            lambda: summary_problems(summary),
        )
        return Workload(name, [infer, summ], main="infer", record=record)
    if name == "sim-batch":
        commands = []
        batches = [(label, args, reps, SIM_N, True) for label, args, reps in SIM_BATCHES]
        batches.append(("gp-ou", SIM_GP_ARGS, SIM_GP_REPS, SIM_GP_N, False))
        for stream, (label, args, reps, n, ks) in enumerate(batches, start=10):
            out = workdir / label / f"{label}.json"
            commands.append(Command(
                "simulate",
                ["simulate", "--iso", "-n", str(n), *args, "--replicates", str(reps),
                 "--workers", "1", "--seed", str(derived_seed(seed, stream)), "--out", str(out)],
                lambda out=out, reps=reps, n=n, ks=ks: batch_problems(out, reps, n, ks),
                replicates=reps,
            ))

        def reset():
            for label, *_ in batches:
                for f in (workdir / label).glob("*.json"):
                    f.unlink()

        return Workload(name, commands, main="simulate", reset=reset)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
