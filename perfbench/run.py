"""coalgp benchmark: CLI pipeline wall times, sampler rate and traced per-module timings.

Run from the root of a coalgp checkout:

    python3 perfbench/run.py --workload serial-n1000 --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the workload's command sequence runs as ``coalgp`` child
processes, one at a time, repeated until ``--seconds`` is used up (at least
MIN_REPEATS times).  Each command's time is its mean over the repeats, and
setup_s is the median of SETUP_REPEATS fresh imports.  Children and the
benchmark itself run with one BLAS/OpenMP thread: the client runs one command
at a time on one core.  With ``--trace 1`` the sequence runs once as
children (the untraced reference) and once in-process through
``coalgp.cli.main`` with timing wrappers around each module's public
functions; the per-layer metrics come from those spans.  Every command's
output is checked.  The last stdout line is the JSON result; a run record
(``BENCH_<workload>_s<seed>_t<trace>.json``) and the spans go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads; the children inherit it.
# The client runs one command at a time on one core, and on a machine of a
# few shared cores a second BLAS thread would time whatever core another
# tenant holds as well.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_REPEATS = 5
MIN_REPEATS = 3
OUT_DIR = ".bench_out"
DEADLINE = time.perf_counter() + RUN_DEADLINE_S
PROGRESS_RE = re.compile(r"iteration (\d+)/(\d+)")

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


def parse_progress(lines):
    """(timestamp, iteration) pairs from ``coalgp infer`` stderr progress lines."""
    out = []
    for stamp, line in lines:
        m = PROGRESS_RE.search(line)
        if m:
            out.append((stamp, int(m.group(1))))
    return out


def iteration_rate(runs) -> float | None:
    """Sampler rate from the progress lines of repeats of one deterministic chain.

    Each repeat's chain time runs from its first to its last progress line,
    which leaves out start-up and the chain write.  The rate is the
    iterations between those lines over the mean chain time of the repeats.
    """
    spans = [(p[-1][1] - p[0][1], p[-1][0] - p[0][0]) for p in runs if len(p) >= 2]
    if not spans or any(n != spans[0][0] for n, _ in spans):
        return None
    chain = statistics.fmean(t for _, t in spans)
    return spans[0][0] / chain if chain > 0 else None


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: list = field(default_factory=list)  # (perf_counter stamp, line)

    @property
    def stderr_text(self) -> str:
        return "\n".join(line for _, line in self.stderr)


def run_child(argv, env) -> ChildResult:
    """Run one child, timestamp its stderr lines, and take its own rusage.

    The child is killed if it would carry the run past its deadline.
    """
    start = time.perf_counter()
    timeout = max(1.0, DEADLINE - start)
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    lines = []
    try:
        for line in proc.stderr:
            lines.append((time.perf_counter(), line.rstrip("\n")))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, lines)


def measure_setup(python, env, repeats=SETUP_REPEATS) -> list:
    """Wall times of fresh interpreters that import coalgp.cli and exit.

    The benchmark imported coalgp.cli itself first, so the bytecode cache is
    written and the files are in the page cache, as for any installed user.
    """
    argv = [python, "-c", "import coalgp.cli"]
    times = []
    for _ in range(repeats):
        res = run_child(argv, env)
        if res.returncode != 0:
            raise RuntimeError(f"import coalgp.cli failed:\n{res.stderr_text}")
        times.append(res.wall_s)
    return times


def run_pipeline(workload, python, env):
    """Run the command sequence once; return per-command results and total wall."""
    cli = [python, "-m", "coalgp.cli"]
    results = []
    start = time.perf_counter()
    for cmd in workload.commands:
        results.append(run_child(cli + cmd.argv, env))
    return results, time.perf_counter() - start


def check_commands(workload, results) -> list:
    """One list of problems per command."""
    return [workloads.command_problems(c, r.returncode, r.stderr_text) for c, r in zip(workload.commands, results)]


def run_record(workload, seed: int) -> dict:
    """Machine, library versions and inputs of one run."""
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "inputs": workload.record,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(workload, seconds, python, env):
    """Closed loop of pipeline repeats for ``seconds`` (at least MIN_REPEATS).

    Every repeat runs the same commands on the same inputs, and each time is
    the mean over the run's repeats.  On a machine of a few shared cores each
    core's speed flips between a fast and a slow state (up to 1.8x apart)
    every second or so as other tenants come and go, and the share of slow
    time drifts from one minute to the next.  The mean tracks that share
    linearly; the fastest repeat jumps between the two states, and from run
    to run it spread wider than the mean did.  No repeat starts that would
    end past ``seconds``.  Returns the metrics, the run record's extra fields
    and one problem list per command run.
    """
    setup = measure_setup(python, env)
    repeats, problems = [], []
    loop_start = time.perf_counter()
    longest = 0.0
    while len(repeats) < MIN_REPEATS or time.perf_counter() - loop_start + longest < seconds:
        if workload.reset is not None:
            workload.reset()
        results, wall = run_pipeline(workload, python, env)
        longest = max(longest, wall)
        problems += check_commands(workload, results)
        repeats.append(results)
    commands = workload.commands
    walls = [[rep[i].wall_s for rep in repeats] for i in range(len(commands))]
    mean = [statistics.fmean(w) for w in walls]
    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": sum(mean),
        "peak_rss_mb": max(r.peak_rss_mb for rep in repeats for r in rep),
    }
    stages = {}
    for cmd, t in zip(commands, mean):
        stages[f"{cmd.kind}_s"] = stages.get(f"{cmd.kind}_s", 0.0) + t
    reps = sum(c.replicates for c in commands if c.kind == "simulate")
    if reps:
        stages["simulate_reps_per_s"] = reps / stages["simulate_s"]
    infer = [i for i, c in enumerate(commands) if c.kind == "infer"]
    if infer:
        stages["infer_iter_per_s"] = iteration_rate([parse_progress(rep[infer[0]].stderr) for rep in repeats])
    for name, value in stages.items():
        print(f"  {name:<24} {value if value is None else format(value, '.6g')} {'1/s' if name.endswith('per_s') else 's'}")
    samples = {"setup_s": setup, "command_walls": walls}
    return metrics, {"stages": stages, "samples": samples}, problems


def traced(workload, python, env, spans_path: Path):
    """One untraced pipeline of children, then the traced in-process run."""
    untraced, wall = run_pipeline(workload, python, env)
    problems = check_commands(workload, untraced)
    metrics, notes, traced_problems = tracing.traced_run(workload, untraced, spans_path)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    extra = {"untraced_pipeline_s": wall, "notes": notes, "spans": spans_path.name}
    return metrics, extra, problems + traced_problems


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "coalgp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "coalgp" / "cli.py").is_file():
        print(f"error: {root} is not a coalgp checkout (no src/coalgp/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import coalgp
    import coalgp.cli  # noqa: F401 - writes the bytecode cache before setup_s is timed

    if Path(coalgp.__file__).resolve().parent != src / "coalgp":
        print(f"error: coalgp imported from {coalgp.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads.WORKLOADS)}")

    env = {k: v for k, v in os.environ.items() if k != "COALGP_OUTDIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out_dir = root / OUT_DIR
    workdir = out_dir / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            units = tracing.UNITS
            spans_path = out_dir / f"spans_{args.workload}_s{args.seed}.npz"
            metrics, extra, problems = traced(workload, sys.executable, env, spans_path)
        else:
            units = E2E_UNITS
            metrics, extra, problems = measure(workload, args.seconds, sys.executable, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    failures = [p for ps in problems for p in ps]
    record = {
        **run_record(workload, args.seed),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        **extra,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    with open(out_dir / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for problem in failures:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<24} {value if value is None else format(value, '.6g')} {units[name]}")
    print(f"  {'fail_share':<24} {failed / attempted:.6g} ratio")
    result = {
        "correct": failed == 0 and None not in metrics.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
