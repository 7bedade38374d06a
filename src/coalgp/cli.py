"""Command-line entry point: simulate, extract, infer, summarize.

All randomness derives from one counter-based Philox stream per invocation,
split per replicate/chain, so identical invocations on identical inputs give
byte-identical outputs regardless of worker scheduling.  ``simulate
--replicates`` makes one lockstep walker call for the whole batch in the
calling process (see :mod:`coalgp.simulate`); ``--workers`` sets only the
number of processes running ``infer``'s chains.  Replicate r draws only from
its own stream, so its file is the same for every batch size (apart from
``meta``).  Count flags (--replicates, --workers, --chains, --proposal-cap)
must be at least 1, real-valued flags finite.  Exit codes: 0 on success, 2
for usage or input-validation problems (including unreadable or unwritable
paths and out-of-range parameter values), 3 for runtime failures (proposal
caps and the simulators' other bounds, sampler aborts, failed allocations),
130 when interrupted (Ctrl-C); each aborted chain writes a state dump next to
its requested output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CoalgpError, McmcError, NewickError, ValidationError
from .genealogy import CoalescentData, extract_coalescent_data, parse_newick, read_tip_dates
from .gp_prior import BrownianMotionKernel, OrnsteinUhlenbeckKernel, kernel_to_json
from .mcmc import ChainOutput, McmcConfig, run_chain
from .simulate import (
    DEFAULT_PROPOSAL_CAP,
    DeterministicSpec,
    ks_against_oracle,
    simulate_hetero_thinning,
    simulate_hetero_thinning_gp,
    simulate_time_transform,
)
from .summarize import default_grid, metric_report, summarize
from .trajectories import parse_trajectory

USAGE_EXIT = 2
RUNTIME_EXIT = 3
INTERRUPT_EXIT = 130
OUTDIR_ENV = "COALGP_OUTDIR"


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed, spawn_key=(stream,))))


def _out_path(path: str) -> Path:
    base = os.environ.get(OUTDIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _meta(args, seed: int) -> dict:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    return {
        "version": __version__,
        "seed": seed,
        "time_unit": args.time_unit,
        "config": resolved,
    }


def _parse_schedule(text: str) -> tuple[list[float], list[int]]:
    times, counts = [], []
    for part in text.split(","):
        t, _, c = part.partition(":")
        times.append(float(t))
        counts.append(int(c))
    return times, counts


def _build_kernel(args):
    if args.kernel == "bm":
        return BrownianMotionKernel(theta=args.theta, init_var=args.init_var)
    return OrnsteinUhlenbeckKernel(theta=args.theta, phi=args.phi)


def _simulate_batch(args, model) -> list:
    """All replicates in one lockstep walker call, replicate r drawing from
    its own stream ``_rng_for(seed, r)``."""
    rngs = [_rng_for(args.seed, r) for r in range(args.replicates)]
    samp_times, samp_counts = ([0.0], [args.n]) if args.iso else _parse_schedule(args.schedule)
    if isinstance(model, DeterministicSpec):
        return simulate_hetero_thinning(
            samp_times, samp_counts, model, rngs,
            record_latent=args.record_latent, proposal_cap=args.proposal_cap,
        )
    return simulate_hetero_thinning_gp(
        samp_times, samp_counts, model, args.lam, rngs, proposal_cap=args.proposal_cap
    )


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")


def cmd_simulate(args) -> int:
    if args.iso == (args.schedule is not None):
        raise ValidationError("exactly one of --iso/-n or --schedule must be given")
    if (args.traj is None) == (args.kernel is None):
        raise ValidationError("exactly one of --traj or --kernel must be given")
    if args.iso and args.n is None:
        raise ValidationError("--iso requires -n")
    if args.traj is not None:
        model = DeterministicSpec(parse_trajectory(args.traj), lam=args.lam, window=args.window)
    elif args.lam is None:
        raise ValidationError("--lambda is required for GP simulation")
    else:
        model = _build_kernel(args)
    out = _out_path(args.out)
    reps = args.replicates
    records = _simulate_batch(args, model)
    if reps == 1:
        (record,) = records
        _write_json(out, {"meta": _meta(args, args.seed), **record.to_json()})
        print(f"wrote {out} ({len(record.coal_times)} coalescent times)", file=sys.stderr)
        return 0
    stem, suffix = out.with_suffix(""), out.suffix or ".json"
    meta = _meta(args, args.seed)
    for r, record in enumerate(records):
        _write_json(f"{stem}_{r:04d}{suffix}", {"meta": meta, "replicate": r, **record.to_json()})
    print(f"wrote {reps} replicates to {stem}_*{suffix}", file=sys.stderr)
    if args.traj is not None:
        thinned = np.vstack([rec.coal_times for rec in records])
        oracle = simulate_time_transform(
            model.traj, _rng_for(args.seed + 1, 0), records[0].samp_times, records[0].samp_counts, reps
        )
        ks = ks_against_oracle(thinned, oracle)
        report = {
            "meta": meta,
            "replicates": reps,
            "ks_by_event": ks.tolist(),
            "ks_max": float(ks.max()),
        }
        ks_path = Path(f"{stem}_ks_report.json")
        with open(ks_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"KS-vs-oracle report: max={ks.max():.4f} -> {ks_path}", file=sys.stderr)
    return 0


def _load_data(args) -> CoalescentData:
    if args.data is not None:
        return CoalescentData.from_file(args.data)
    with open(args.tree) as fh:
        text = fh.read()
    tip_dates = None
    if args.tip_dates:
        with open(args.tip_dates) as fh:
            tip_dates = read_tip_dates(fh.read())
    g = parse_newick(text, tip_dates=tip_dates, date_delimiter=args.date_delimiter)
    return extract_coalescent_data(g)


def _run_one_chain(data: CoalescentData, kernel, cfg: McmcConfig, c: int, path: Path) -> ChainOutput:
    """Run chain ``c``; on an abort, write its state dump next to ``path`` and
    re-raise."""

    def progress(done, total, rates):
        bits = " ".join(f"{k}={v:.2f}" for k, v in rates.items())
        print(f"[chain {c}] iteration {done}/{total}  acceptance: {bits}", file=sys.stderr)

    try:
        return run_chain(data, cfg, kernel, progress=progress)
    except McmcError as exc:
        dump_path = path.with_suffix(".abort.json")
        with open(dump_path, "w") as fh:
            json.dump({"error": str(exc), "state": exc.state_dump}, fh, indent=2)
        print(f"sampler aborted; state dump at {dump_path}", file=sys.stderr)
        raise


def cmd_infer(args) -> int:
    if (args.tree is None) == (args.data is None):
        raise ValidationError("exactly one of --tree or --data must be given")
    kernel = _build_kernel(args)
    cfg = McmcConfig(
        iterations=args.iters,
        burn_in=args.burnin,
        thin=args.thin,
        theta_alpha=args.alpha,
        theta_beta=args.beta,
        lambda_hat=args.lambda_hat,
        lambda_eps=args.eps,
        lambda_halfwidth=args.halfwidth,
        rj_sweeps=args.rj_sweeps,
        location_moves=args.location_moves,
    )
    data = _load_data(args)
    out = _out_path(args.out)
    n_chains = args.chains
    seeds = np.random.SeedSequence(args.seed).spawn(n_chains)  # chain c's spawn key is (c,)
    cfgs = [dataclasses.replace(cfg, seed=int(s.generate_state(1)[0])) for s in seeds]
    paths = [
        out if n_chains == 1 else Path(f"{out.with_suffix('')}_chain{c}{out.suffix or '.jsonl'}")
        for c in range(n_chains)
    ]
    run = functools.partial(_run_one_chain, data, kernel)
    if args.workers > 1 and n_chains > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            chains = list(pool.map(run, cfgs, range(n_chains), paths))
    else:
        chains = list(map(run, cfgs, range(n_chains), paths))
    for path, chain in zip(paths, chains):
        with open(path, "w") as fh:
            meta = _meta(args, args.seed)
            fh.write(json.dumps({"type": "meta", **meta, "kernel": kernel_to_json(kernel)}) + "\n")
            chain.write_jsonl(fh)
        print(f"wrote {path} ({len(chain.draws)} retained draws)", file=sys.stderr)
    return 0


def cmd_extract(args) -> int:
    data = _load_data(args)
    out = _out_path(args.out)
    _write_json(out, {"meta": _meta(args, 0), **data.to_json()})
    print(f"wrote {out} ({data.n} samples, {len(data.coal_times)} coalescent events)", file=sys.stderr)
    return 0


def cmd_summarize(args) -> int:
    truth = parse_trajectory(args.truth) if args.truth is not None else None
    with open(args.chain) as fh:
        chain = ChainOutput.read_jsonl(fh)
    if not chain.draws:
        raise ValidationError("chain holds no draws")
    rng = _rng_for(args.seed, 0)
    if args.grid_max is not None:
        grid = np.linspace(0.0, args.grid_max, args.grid)
    else:
        grid = default_grid(chain, args.grid)
    import warnings as _warnings

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        summary = summarize(chain, grid, rng)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    # scored before any output is opened, so a failing metric writes nothing
    report = metric_report(summary, truth.ne(grid)) if truth is not None else None
    out = _out_path(args.out)
    with open(out, "w") as fh:
        summary.write_csv(fh)
    print(f"wrote {out} ({len(grid)} rows)", file=sys.stderr)
    if report is not None:
        metrics_path = _out_path(args.metrics_out or str(Path(args.out).with_suffix(".metrics.json")))
        with open(metrics_path, "w") as fh:
            report.write_json(fh)
        print(
            f"metrics: sre={report.sre:.3f} mrw={report.mrw:.3f} "
            f"envelope={report.envelope:.3f} variation={report.variation:.3f} -> {metrics_path}",
            file=sys.stderr,
        )
    return 0


def _count(text: str) -> int:
    """Value of a count flag (replicates, workers, chains, proposal cap): an
    integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _real(text: str) -> float:
    """Value of a real-valued flag: a finite number; range checks are the
    command's."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalgp",
        description="Coalescent simulation by thinning and GP-based inference of N_e(t)",
    )
    parser.add_argument("--version", action="version", version=f"coalgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate coalescent times by thinning")
    sim.add_argument("--iso", action="store_true", help="all samples at time 0")
    sim.add_argument("-n", type=int, help="sample count for --iso")
    sim.add_argument("--schedule", help="heterochronous schedule, e.g. '0:50,0.5:25,1.0:25'")
    sim.add_argument("--traj", help="deterministic trajectory, e.g. constant:1 | expgrowth:25,5 | boombust")
    sim.add_argument("--kernel", choices=["bm", "ou"], help="GP kernel for a stochastic trajectory")
    sim.add_argument("--theta", type=_real, default=1.0, help="GP precision")
    sim.add_argument("--init-var", type=_real, default=100.0, help="BM free-initial-level variance scale")
    sim.add_argument("--phi", type=_real, default=1.0, help="OU mean-reversion rate")
    sim.add_argument("--lambda", dest="lam", type=_real, help="certified bound on 1/N_e")
    sim.add_argument("--window", type=_real, help="lookahead width for the local-bound envelope")
    sim.add_argument("--record-latent", action="store_true", help="record thinned points (deterministic runs)")
    sim.add_argument(
        "--proposal-cap", type=_count, default=DEFAULT_PROPOSAL_CAP,
        help="candidate rounds allowed per coalescent interval, envelope-window steps that propose nothing included",
    )
    sim.add_argument("--replicates", type=_count, default=1)
    sim.add_argument(
        "--workers", type=_count, default=1,
        help="accepted and ignored: every replicate runs in this process (--workers sets infer's chain processes)",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--time-unit", default="generations")
    sim.add_argument("--out", default="simulation.json")
    sim.set_defaults(func=cmd_simulate)

    inf = sub.add_parser("infer", help="MCMC inference of N_e(t) from a genealogy")
    inf.add_argument("--tree", help="Newick file")
    inf.add_argument("--data", help="CoalescentData JSON file (bypasses Newick)")
    inf.add_argument("--tip-dates", help="two-column label/date table")
    inf.add_argument("--date-delimiter", help="delimiter for dates embedded in tip labels")
    inf.add_argument("--iters", type=int, default=100_000)
    inf.add_argument("--burnin", type=int, default=20_000)
    inf.add_argument("--thin", type=int, default=10)
    inf.add_argument("--kernel", choices=["bm", "ou"], default="bm")
    inf.add_argument("--theta", type=_real, default=1.0, help="initial GP precision (resampled)")
    inf.add_argument("--init-var", type=_real, default=100.0)
    inf.add_argument("--phi", type=_real, default=1.0)
    inf.add_argument("--lambda-hat", type=_real, default=McmcConfig.lambda_hat)
    inf.add_argument("--eps", type=_real, default=McmcConfig.lambda_eps)
    inf.add_argument("--alpha", type=_real, default=McmcConfig.theta_alpha)
    inf.add_argument("--beta", type=_real, default=McmcConfig.theta_beta)
    inf.add_argument("--halfwidth", type=_real, default=McmcConfig.lambda_halfwidth,
                     help="lambda proposal half-width (default 0.1*lambda-hat)")
    inf.add_argument("--rj-sweeps", type=int, default=McmcConfig.rj_sweeps)
    inf.add_argument("--location-moves", type=int, default=McmcConfig.location_moves)
    inf.add_argument("--chains", type=_count, default=1)
    inf.add_argument("--workers", type=_count, default=1, help="processes running the chains")
    inf.add_argument("--seed", type=int, default=0)
    inf.add_argument("--time-unit", default="generations")
    inf.add_argument("--out", default="chain.jsonl")
    inf.set_defaults(func=cmd_infer)

    ext = sub.add_parser("extract", help="reduce a Newick tree to coalescent-data JSON")
    ext.add_argument("--tree", required=True, help="Newick file")
    ext.add_argument("--tip-dates", help="two-column label/date table")
    ext.add_argument("--date-delimiter", help="delimiter for dates embedded in tip labels")
    ext.add_argument("--time-unit", default="generations")
    ext.add_argument("--out", default="coalescent_data.json")
    ext.set_defaults(func=cmd_extract, data=None)

    summ = sub.add_parser("summarize", help="grid summaries and metrics from a chain")
    summ.add_argument("--chain", required=True)
    summ.add_argument("--grid", type=int, default=150, help="number of grid points on [0, root]")
    summ.add_argument("--grid-max", type=_real, help="override the grid's upper end")
    summ.add_argument("--truth", help="trajectory spec to score against (writes metrics)")
    summ.add_argument("--metrics-out")
    summ.add_argument("--seed", type=int, default=0)
    summ.add_argument("--time-unit", default="generations")
    summ.add_argument("--out", default="summary.csv")
    summ.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NewickError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (CoalgpError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return RUNTIME_EXIT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPT_EXIT


if __name__ == "__main__":
    sys.exit(main())
