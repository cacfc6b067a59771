"""Experiment presets: bundled campaigns with manifest-tracked outputs.

Each preset writes CSV/JSON files plus a manifest (scenario hash, seed,
scale, versions) sufficient to regenerate the data. ``scale`` multiplies
campaign sizes (strategy counts) and is their only setting; the size of each
run is fixed below.
"""
from __future__ import annotations

import contextlib
import csv
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import Scenario, enumerate_regions, naive_strategy, random_strategy
from .engine import SimConfig, run_replication, substream
from .errors import InvalidInputError
from .fitting import (
    fit_exponential,
    fit_geometric,
    fit_success,
    floor_binned,
    profit_summary,
)
from .markov import SEARCH_CSV_HEADER, prefer2_order, strategy_search
from .tenants import KnowledgeRegime

TABLE3_REGIMES = (
    ("patient", KnowledgeRegime("patient")),
    ("blind_1", KnowledgeRegime("blind", risk_factor=1.0)),
    ("blind_0.1", KnowledgeRegime("blind", risk_factor=0.1)),
    ("blind_0.01", KnowledgeRegime("blind", risk_factor=0.01)),
    ("position", KnowledgeRegime("position", delta_k=2)),
    ("avg_wait", KnowledgeRegime("avg_wait")),
    ("serving_rate", KnowledgeRegime("serving_rate")),
    ("full", KnowledgeRegime("full")),
)
TABLE3_HORIZON = 1000.0
# fig4-fig6 pool this many runs of this horizon per strategy
ROUNDS, ROUND_HORIZON = 25, 40.0


def scaled(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _random_strategies(region, seed: int, scale: float) -> list:
    """The campaign's random strategies, 1000 scaled, drawn from the presets'
    strategy stream of ``seed``."""
    rng = substream(seed, 0, 998)
    return [random_strategy(region, rng) for _ in range(scaled(1000, scale))]


@dataclass
class OutputDir:
    path: Path
    manifest: dict

    @classmethod
    def create(cls, path, force: bool, **manifest_fields) -> "OutputDir":
        p = Path(path)
        if p.exists() and any(p.iterdir()) and not force:
            raise InvalidInputError(
                f"output directory {p} exists and is not empty (use --force)"
            )
        p.mkdir(parents=True, exist_ok=True)
        manifest = {"package_version": __version__, "outputs": [], **manifest_fields}
        return cls(path=p, manifest=manifest)

    @classmethod
    @contextlib.contextmanager
    def open(cls, path, force: bool, **manifest_fields):
        """``create`` for one run: the manifest is written when the run
        returns. A run that fails removes the topmost directory it made, or,
        in a directory that was already there, the outputs it listed."""
        made = next((p for p in reversed((Path(path), *Path(path).parents))
                     if not p.exists()), None)
        out = None
        try:
            out = cls.create(path, force, **manifest_fields)
            yield out
            out.finalize()
        except BaseException:
            if made is not None:
                shutil.rmtree(made, ignore_errors=True)
            elif out is not None:
                for name in out.manifest["outputs"]:
                    (out.path / name).unlink(missing_ok=True)
            raise

    # each output is listed before it is opened, so a failed run can remove it
    def write_csv(self, name: str, header, rows) -> None:
        self.manifest["outputs"].append(name)
        with open(self.path / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def write_json(self, name: str, payload) -> None:
        self.manifest["outputs"].append(name)
        with open(self.path / name, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def finalize(self) -> None:
        with open(self.path / "manifest.json", "w") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_table3(scenario: Scenario, out: OutputDir, scale: float, seed: int,
               progress=None) -> dict:
    """Per-regime tenant-profit campaign: each regime runs the same random
    strategies for the full horizon; profits are pooled over runs."""
    region = enumerate_regions(scenario)
    strategies = _random_strategies(region, seed, scale)
    n_strat = len(strategies)

    detail_rows = []
    summary_rows = []
    for regime_name, regime in TABLE3_REGIMES:
        # per type: issued requests, summed end profit, profiting requests
        pooled = [[0] * scenario.n_types for _ in range(3)]
        for i, strat in enumerate(strategies):
            cfg = SimConfig(horizon=TABLE3_HORIZON, master_seed=seed, queue_cap=100,
                            knowledge=regime, initial_state="empty",
                            collect_records=False)
            metrics = run_replication(scenario, strat, cfg, replication=i,
                                      region=region)
            tallies = (metrics.n_issued, metrics.profit, metrics.profiting)
            pooled = [[a + b for a, b in zip(p, q)] for p, q in zip(pooled, tallies)]
            for t, s in profit_summary(*tallies).items():
                detail_rows.append([
                    regime_name, i, t, s["n_issued"],
                    f"{s['total_profit']:.6g}", f"{s['mean_profit']:.6g}",
                    f"{s['profiting_chance']:.6g}",
                ])
            if progress:
                progress(f"table3 {regime_name} strategy {i + 1}/{n_strat}")
        row = [regime_name]
        for s in profit_summary(*pooled).values():
            row += [
                f"{s['total_profit']:.6g}", f"{s['mean_profit']:.6g}",
                f"{s['profiting_chance']:.6g}", s["n_issued"],
            ]
        summary_rows.append(row)

    per_type_cols = []
    for t in range(scenario.n_types):
        per_type_cols += [
            f"total_profit_{t + 1}", f"mean_profit_{t + 1}",
            f"profiting_chance_{t + 1}", f"n_issued_{t + 1}",
        ]
    out.write_csv("table3_runs.csv",
                  ["regime", "strategy", "slice_type", "n_issued",
                   "total_profit", "mean_profit", "profiting_chance"],
                  detail_rows)
    out.write_csv("table3_summary.csv", ["regime"] + per_type_cols, summary_rows)
    return {"n_strategies": n_strat, "regimes": [r for r, _ in TABLE3_REGIMES]}


def _iat_fit_rows(scenario, region, strategies, seed, regime, label, progress):
    """One geometric fit per (strategy, queue), pooling the Monte-Carlo
    rounds of that strategy, and the arm's summed counts of its capped queues."""
    rows = []
    successes = 0
    total = 0
    counts = dict.fromkeys(("arrivals", "cap_rejections", "still_waiting"), 0)
    for i, strat in enumerate(strategies):
        cfg = SimConfig(horizon=ROUND_HORIZON, master_seed=seed, queue_cap=100,
                        knowledge=regime, initial_state="random_full",
                        collect_records=False)
        pooled = [[] for _ in range(scenario.n_types)]
        for r in range(ROUNDS):
            metrics = run_replication(scenario, strat, cfg,
                                      replication=i * ROUNDS + r, region=region)
            for t in range(scenario.n_types):
                pooled[t].extend(metrics.inter_acceptance_times(t + 1))
            for key in counts:
                counts[key] += sum(getattr(metrics, key))
        for t in range(scenario.n_types):
            total += 1
            if len(pooled[t]) < 2:
                rows.append([label, i, t + 1, len(pooled[t]), "", "", 0])
                continue
            fit = fit_geometric(floor_binned(pooled[t]))
            ok = fit_success(fit)
            successes += int(ok)
            rows.append([
                label, i, t + 1, fit.n,
                f"{fit.parameter:.6g}",
                f"{fit.kld:.6g}" if fit.kld is not None else "",
                int(ok),
            ])
        if progress:
            progress(f"fig4 {label} strategy {i + 1}/{len(strategies)}")
    rate = successes / total if total else 0.0
    return rows, rate, counts


def run_fig4_iat(scenario: Scenario, out: OutputDir, scale: float, seed: int,
                 progress=None) -> dict:
    """Geometric fits of per-queue inter-acceptance times, patient tenants
    against fully informed impatient ones."""
    region = enumerate_regions(scenario)
    strategies = _random_strategies(region, seed, scale)
    n_strat = len(strategies)

    rows_patient, rate_patient, counts_patient = _iat_fit_rows(
        scenario, region, strategies, seed, KnowledgeRegime("patient"), "patient", progress)
    rows_full, rate_full, counts_full = _iat_fit_rows(
        scenario, region, strategies, seed, KnowledgeRegime("full"), "impatient", progress)

    out.write_csv("fig4_iat_fits.csv",
                  ["tenancy", "strategy", "queue", "n_iat",
                   "p_hat", "kld", "success"],
                  rows_patient + rows_full)
    summary = {
        "patient_success_rate": rate_patient,
        "impatient_success_rate": rate_full,
        "patient_counts": counts_patient,
        "impatient_counts": counts_full,
        "n_strategies": n_strat,
        "rounds": ROUNDS,
        "horizon": ROUND_HORIZON,
    }
    out.write_json("fig4_summary.json", summary)
    return summary


def run_fig5_reneging(scenario: Scenario, out: OutputDir, scale: float,
                      seed: int, progress=None) -> dict:
    """Reneging-time distributions under random strategies and under a fixed
    prefer-type-2 strategy, with exponential fits and tail diagnostics."""
    region = enumerate_regions(scenario)
    random_strategies = _random_strategies(region, seed, scale)
    n_strat = len(random_strategies)
    regime = KnowledgeRegime("full")

    campaigns = {
        "random": random_strategies,
        "prefer2": [naive_strategy(region, prefer2_order(scenario.n_types))] * n_strat,
    }

    fit_rows = []
    hist_rows = []
    summary = {}
    for label, strategies in campaigns.items():
        pools: list[list[float]] = [[] for _ in range(scenario.n_types)]
        for i, strat in enumerate(strategies):
            cfg = SimConfig(horizon=ROUND_HORIZON, master_seed=seed, queue_cap=100,
                            knowledge=regime, initial_state="random_full")
            for r in range(ROUNDS):
                metrics = run_replication(scenario, strat, cfg,
                                          replication=i * ROUNDS + r,
                                          region=region)
                for rec in metrics.records:
                    if rec.disposition == "reneged" and rec.wait > 0:
                        pools[rec.slice_type - 1].append(rec.wait)
            if progress:
                progress(f"fig5 {label} strategy {i + 1}/{len(strategies)}")
        for t, pool in enumerate(pools):
            if len(pool) < 2:
                fit_rows.append([label, t + 1, len(pool), "", ""])
                continue
            fit = fit_exponential(pool)
            fit_rows.append([
                label, t + 1, fit.n, f"{fit.parameter:.6g}",
                f"{fit.tail_diagnostic:.6g}",
            ])
            summary[f"{label}_tail_diag_{t + 1}"] = fit.tail_diagnostic
            counts, edges = np.histogram(pool, bins=30)
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                hist_rows.append([label, t + 1, f"{lo:.6g}", f"{hi:.6g}", int(c)])

    out.write_csv("fig5_fits.csv",
                  ["campaign", "queue", "n_reneges", "rate", "tail_diagnostic"],
                  fit_rows)
    out.write_csv("fig5_histogram.csv",
                  ["campaign", "queue", "bin_lo", "bin_hi", "count"], hist_rows)
    out.write_json("fig5_summary.json", summary)
    return summary


def run_fig6_search(scenario: Scenario, out: OutputDir, scale: float,
                    seed: int, progress=None) -> dict:
    """Random-strategy search with naive and greedy single-queue benchmarks."""
    region = enumerate_regions(scenario)
    n_strat = scaled(10_000, scale)
    cfg = SimConfig(horizon=ROUND_HORIZON, master_seed=seed, queue_cap=100,
                    knowledge=KnowledgeRegime("full"),
                    initial_state="random_full", replications=ROUNDS)
    rows = strategy_search(scenario, region, n_strat, cfg)
    out.write_csv("fig6_search.csv", SEARCH_CSV_HEADER, [r.csv_row() for r in rows])
    best_random = max((r for r in rows if r.kind == "random"),
                      key=lambda r: r.u_sigma)
    greedy = next(r for r in rows if r.kind == "greedy_single")
    summary = {
        "n_strategies": n_strat,
        "rounds": ROUNDS,
        "best_random_u_sigma": best_random.u_sigma,
        "greedy_single_u_sigma": greedy.u_sigma,
    }
    out.write_json("fig6_summary.json", summary)
    return summary


def run_regions_report(scenario: Scenario, out: OutputDir | None = None,
                       dump_states: bool = False) -> dict:
    region = enumerate_regions(scenario)
    report = {
        "n_feasible": region.n_feasible,
        "n_admissible": region.n_admissible,
        "scenario_fingerprint": region.scenario_fingerprint,
    }
    if dump_states:
        report["admissible"] = [list(s) for s in region.feasible[:region.n_admissible]]
        report["boundary"] = [
            list(s) for s in region.feasible[region.n_admissible:]
        ]
    if out is not None:
        out.write_json("regions.json", report)
    return report


# preset name -> runner(scenario, out, scale, seed, progress=...)
PRESETS = {
    "table3": run_table3,
    "fig4_iat": run_fig4_iat,
    "fig5_reneging": run_fig5_reneging,
    "fig6_search": run_fig6_search,
    "regions": lambda scenario, out, scale, seed, progress=None: run_regions_report(
        scenario, out, dump_states=True),
}


def run_preset(name: str, scenario: Scenario, out_path, scale: float,
               seed: int, force: bool = False, progress=None) -> dict:
    if name not in PRESETS:
        raise InvalidInputError(f"unknown preset {name!r}")
    if not 0 < scale <= 1:
        raise InvalidInputError("scale must lie in (0, 1]")
    with OutputDir.open(out_path, force, preset=name, scale=scale, seed=seed,
                        scenario_fingerprint=scenario.fingerprint(), argv=sys.argv[1:]) as out:
        summary = PRESETS[name](scenario, out, scale, seed, progress=progress)
        out.manifest["summary"] = summary
    return summary
