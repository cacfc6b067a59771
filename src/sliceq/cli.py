"""Command-line front door.

Subcommands: regions, analyze, simulate, fit, markov, search, preset.
Exit codes: 0 success, 2 invalid input, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from .core import (
    BUILTIN_SCENARIOS,
    RegionIndex,
    Scenario,
    Strategy,
    enumerate_regions,
    naive_strategy,
    random_strategy,
    validate_preference,
)
from .engine import SimConfig, run_replication, substream, summarize_run
from .errors import (
    DivergentQueueError,
    InvalidInputError,
    SeriesTruncationError,
    SliceQError,
)
from .fitting import fit_exponential, fit_geometric, fit_success, floor_binned
from .markov import SEARCH_CSV_HEADER, analytic_evaluation, strategy_search
from .presets import PRESET_NAMES, OutputDir, run_preset, run_regions_report
from .queueing import QueueParams, impatient_pmf, wait_densities
from .tenants import REGIME_KINDS, KnowledgeRegime

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3


def load_scenario(ref: str) -> Scenario:
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in BUILTIN_SCENARIOS:
            raise InvalidInputError(
                f"unknown builtin scenario {name!r}; have {sorted(BUILTIN_SCENARIOS)}"
            )
        return BUILTIN_SCENARIOS[name]()
    return Scenario.load(ref)


def load_strategy(ref: str, scenario: Scenario, region: RegionIndex,
                  seed: int) -> Strategy:
    if ref.startswith("naive:"):
        try:
            order = [int(x) for x in ref.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"naive strategy {ref!r} is not a comma list of types") from exc
        return naive_strategy(region, validate_preference(order, scenario.n_types))
    if ref == "random":
        rng = substream(seed, 0, 997)
        return random_strategy(region, rng)
    return Strategy.load(ref, region)


def _number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InvalidInputError(f"{what} {text!r} is not a finite number")
    return value


def _config_from_args(args, **extra) -> SimConfig:
    """The simulation options every simulating subcommand shares."""
    if args.queue_cap < 0:
        raise InvalidInputError("--queue-cap must be non-negative (0 means no cap)")
    return SimConfig(
        horizon=args.horizon, replications=args.replications, master_seed=args.seed,
        queue_cap=args.queue_cap or None,
        knowledge=KnowledgeRegime(args.knowledge, risk_factor=args.risk_factor,
                                  delta_k=args.delta_k),
        initial_state=args.initial_state, **extra)


def cmd_regions(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_regions_report(scenario, dump_states=args.dump)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.pmf_entries < 0:
        raise InvalidInputError("--pmf-entries must be non-negative")
    params = QueueParams(args.lam, args.mu, args.alpha, args.beta)
    pmf = impatient_pmf(params)
    out = wait_densities(params)
    report = {
        "pmf": [float(p) for p in pmf[: args.pmf_entries]],
        "p_join": out.p_join,
        "p_accept": out.p_accept,
        "p_accept_given_join": out.p_accept_given_join,
        "mean_wait_accepted": out.mean_accepted,
        "mean_wait_reneged": out.mean_reneged,
        "mean_wait_joined": out.mean_joined,
    }
    # a figure whose condition has no mass is left out
    report = {key: value for key, value in report.items() if value is not None}
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    region = enumerate_regions(scenario)
    strategy = load_strategy(args.strategy, scenario, region, args.seed)
    config = _config_from_args(args, warmup_fraction=args.warmup)
    out = OutputDir.create(
        args.out, args.force,
        command="simulate", seed=args.seed,
        scenario_fingerprint=scenario.fingerprint(),
        argv=sys.argv[1:],
    )

    rows = []

    def request_rows(events):
        # each replication is summarized, written and dropped before the next;
        # traced events go to the file as they happen, each naming its replication
        for rep in range(config.replications):
            trace = None if events is None else (lambda event, rep=rep: events.write(
                json.dumps({"replication": rep, **event}) + "\n"))
            m = run_replication(scenario, strategy, config, rep, region=region, trace=trace)
            rows.append(summarize_run(m, scenario))
            for r in m.records:
                yield [m.replication, r.request_id, r.slice_type,
                       f"{r.enter_time:.9g}", f"{r.lifetime:.9g}",
                       r.entry_queue_length, r.disposition, f"{r.wait:.9g}",
                       "" if r.end_profit is None else f"{r.end_profit:.9g}"]
            del m

    if args.trace:
        out.manifest["outputs"].append("events.jsonl")
    with open(out.path / "events.jsonl", "w") if args.trace else contextlib.nullcontext() as events:
        out.write_csv("requests.csv", ["replication", "request_id", "slice_type", "enter_time",
                                       "lifetime", "entry_queue_length", "disposition",
                                       "wait", "end_profit"], request_rows(events))

    header = list(rows[0].keys())
    out.write_csv("metrics.csv", header,
                  [[row[k] for k in header] for row in rows])
    out.finalize()
    print(f"wrote {out.path}/metrics.csv ({len(rows)} replications)")
    return EXIT_OK


def cmd_fit(args) -> int:
    rows = []
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = reader.fieldnames or []
        if args.column not in columns:
            raise InvalidInputError(f"column {args.column!r} not in {args.input}: {columns}")
        if args.where is not None:
            key, sep, expected = args.where.partition("=")
            if not sep or key not in columns:
                raise InvalidInputError(f"--where must be column=value, column in {columns}")
        for row in reader:
            if args.where is not None and row[key] != expected:
                continue
            cell = row[args.column]
            if cell != "":
                rows.append(_number(cell, f"{args.column} value"))
    if args.kind == "geometric":
        fit = fit_geometric(floor_binned(rows))
    else:
        fit = fit_exponential(rows)
    report = {
        "kind": args.kind,
        "n": fit.n,
        "parameter": fit.parameter,
        "converged": fit.converged,
        "log_likelihood": fit.log_likelihood,
        "kld": fit.kld,
        "tail_diagnostic": fit.tail_diagnostic,
        "degenerate": fit.degenerate,
        "success": fit_success(fit) if args.kind == "geometric" else None,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_markov(args) -> int:
    if args.top_k < 0:
        raise InvalidInputError("--top-k must be non-negative")
    scenario = load_scenario(args.scenario)
    region = enumerate_regions(scenario)
    strategy = load_strategy(args.strategy, scenario, region, args.seed)
    empty_probs = None
    if args.empty_probs:
        empty_probs = [_number(x, "--empty-probs value") for x in args.empty_probs.split(",")]
        if len(empty_probs) != scenario.n_types:
            raise InvalidInputError(
                "--empty-probs needs one value per slice type"
            )
        if args.fixed_point_rounds != 0:
            raise InvalidInputError("--empty-probs leaves --fixed-point-rounds nothing to refine")
    result = analytic_evaluation(
        scenario, strategy, region, seed=args.seed,
        fixed_point_rounds=args.fixed_point_rounds,
        empty_probs=empty_probs,
    )
    dist = result["long_run"]
    top = np.argsort(dist)[::-1][: args.top_k]
    report = {
        "label": result["label"],
        "converged": result["converged"],
        "residual": result["residual"],
        "acceptance_rates": [float(x) for x in result["acceptance_rates"]],
        "u_sigma": result["u_sigma"],
        "top_states": [
            {"state": list(region.feasible[int(i)]), "prob": float(dist[int(i)])}
            for i in top
        ],
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_search(args) -> int:
    scenario = load_scenario(args.scenario)
    region = enumerate_regions(scenario)
    rows = strategy_search(
        scenario, region, args.n_strategies, _config_from_args(args),
        objective=args.objective, evaluator=args.evaluator,
        exhaustive=args.exhaustive,
    )
    writer = csv.writer(sys.stdout)
    writer.writerow(SEARCH_CSV_HEADER)
    writer.writerows(r.csv_row() for r in rows)
    return EXIT_OK


def cmd_preset(args) -> int:
    scenario = load_scenario(args.scenario)
    progress = None
    if args.verbose:
        def progress(msg):
            print(msg, file=sys.stderr)
    summary = run_preset(
        args.name, scenario, args.out, args.scale, args.seed,
        force=args.force, progress=progress,
    )
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceq",
        description="Multi-queue slice admission control simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument("--scenario", default="builtin:demo",
                       help="scenario JSON path or builtin:demo / builtin:tiny")

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        add_scenario(p)

    def add_sim_opts(p):
        p.add_argument("--horizon", type=float, default=1000.0)
        p.add_argument("--replications", type=int, default=1)
        p.add_argument("--queue-cap", dest="queue_cap", type=int, default=100,
                       help="most requests a queue holds (0 means no cap)")
        p.add_argument("--knowledge", default="patient", choices=REGIME_KINDS)
        p.add_argument("--risk-factor", dest="risk_factor", type=float, default=1.0)
        p.add_argument("--delta-k", dest="delta_k", type=int, default=2)
        p.add_argument("--initial-state", dest="initial_state", default="empty",
                       choices=["empty", "random_feasible", "random_full"])

    p = sub.add_parser("regions", help="report feasible/admissible region sizes")
    add_scenario(p)
    p.add_argument("--dump", action="store_true", help="include the state lists")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("analyze", help="single-queue stationary analytics")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--pmf-entries", dest="pmf_entries", type=int, default=20)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the multi-queue simulator")
    add_common(p)
    add_sim_opts(p)
    p.add_argument("--strategy", default="random",
                   help="strategy file, naive:1,2,0 or random")
    p.add_argument("--warmup", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--trace", action="store_true", help="write events.jsonl")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a distribution to a CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--kind", choices=["geometric", "exponential"],
                   default="geometric")
    p.add_argument("--where", default=None,
                   help="keep only rows matching column=value, e.g. disposition=reneged")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("markov", help="embedded-chain strategy evaluation")
    add_common(p)
    p.add_argument("--strategy", default="random")
    p.add_argument("--top-k", dest="top_k", type=int, default=10)
    p.add_argument("--fixed-point-rounds", dest="fixed_point_rounds",
                   type=int, default=0)
    p.add_argument("--empty-probs", dest="empty_probs", default=None,
                   help="comma-separated queue-empty probabilities "
                        "(skips the bootstrap run)")
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("search", help="random-strategy search with benchmarks")
    add_common(p)
    add_sim_opts(p)
    p.add_argument("--n-strategies", dest="n_strategies", type=int, default=100)
    p.add_argument("--objective", choices=["utility", "wait", "admission"],
                   default="utility")
    p.add_argument("--evaluator", choices=["simulation", "analytic"],
                   default="simulation")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("preset", help="run a bundled experiment campaign")
    add_common(p)
    p.add_argument("name", choices=list(PRESET_NAMES))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refused before any output is made; the engine refuses it too
        if getattr(args, "seed", 0) < 0:
            raise InvalidInputError(f"--seed must be non-negative, not {args.seed}")
        return args.func(args)
    except (DivergentQueueError, SeriesTruncationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SliceQError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, UnicodeDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
