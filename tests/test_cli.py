"""Command-line surface: subcommands, file outputs, exit codes."""
import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from sliceq import cli, core, engine
from sliceq.cli import main
from sliceq.core import demo_scenario, enumerate_regions, tiny_scenario
from sliceq.errors import InvalidInputError
from sliceq.markov import analytic_evaluation
from sliceq.tenants import KnowledgeRegime


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_regions_tiny(capsys):
    code, out, _ = _run(capsys, "regions", "--scenario", "builtin:tiny")
    assert code == 0
    report = json.loads(out)
    assert report["n_feasible"] == 9
    assert report["n_admissible"] == 7


def test_regions_dump_lists_states(capsys):
    code, out, _ = _run(capsys, "regions", "--scenario", "builtin:tiny", "--dump")
    report = json.loads(out)
    assert [0, 0] in report["admissible"]
    assert len(report["admissible"]) == 7


def test_regions_scenario_file(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(tiny_scenario().to_dict()))
    code, out, _ = _run(capsys, "regions", "--scenario", str(path))
    assert code == 0
    assert json.loads(out)["n_admissible"] == 7


def _strict_json(text):
    """Parse ``text`` as JSON proper, which has no NaN or infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_analyze_report(capsys):
    code, out, _ = _run(capsys, "analyze", "--lam", "1", "--mu", "1",
                        "--alpha", "1", "--beta", "0.5")
    assert code == 0
    report = _strict_json(out)
    assert report["pmf"][0] == pytest.approx(0.7448317571514059)
    assert report["p_accept_given_join"] == pytest.approx(0.471439361566038)
    assert report["mean_wait_joined"] == pytest.approx(0.528560638433962)
    assert set(report) == {"pmf", "p_join", "p_accept", "p_accept_given_join",
                           "mean_wait_accepted", "mean_wait_reneged", "mean_wait_joined"}
    assert all(report[key] > 0 for key in report if key.startswith("mean_wait"))


def test_analyze_reports_pmf_without_densities_when_undefined(capsys):
    # every arrival balks: the pmf and the join and acceptance shares are
    # defined, the figures conditional on joining are not
    code, out, _ = _run(capsys, "analyze", "--lam", "1", "--mu", "1",
                        "--alpha", "1", "--beta", "1000")
    assert code == 0
    report = _strict_json(out)
    assert report["pmf"][0] == 1.0
    assert report["p_join"] == report["p_accept"] == 0.0
    assert set(report) == {"pmf", "p_join", "p_accept"}


def test_analyze_without_reneging_has_no_reneged_wait(capsys):
    code, out, _ = _run(capsys, "analyze", "--lam", "1", "--mu", "1",
                        "--alpha", "0", "--beta", "0.5")
    assert code == 0
    report = _strict_json(out)
    assert "mean_wait_reneged" not in report
    assert report["p_accept_given_join"] == 1.0
    assert report["mean_wait_accepted"] == pytest.approx(report["mean_wait_joined"])


def test_analyze_at_a_workload_that_underflows(capsys):
    # lambda/mu rounds to 0: the queue is always empty, where the truncation
    # of the geometric law once took the logarithm of 0
    code, out, _ = _run(capsys, "analyze", "--lam", "1e-320", "--mu", "1e10")
    assert code == 0
    report = _strict_json(out)
    assert report["pmf"][0] == 1.0
    assert report["p_accept"] == 1.0
    assert report["mean_wait_accepted"] == pytest.approx(1e-10)


@pytest.mark.parametrize("argv", [
    ("--lam", "nan", "--mu", "1"),
    ("--lam", "1", "--mu", "inf"),
    ("--lam", "1", "--mu", "1", "--alpha", "inf", "--beta", "0.5"),
    ("--lam", "1", "--mu", "1", "--alpha", "nan"),
], ids=["nan-arrival-rate", "infinite-service-rate", "infinite-reneging-rate",
        "nan-reneging-rate"])
def test_analyze_refuses_nan_and_infinite_rates(capsys, argv):
    # each once ended in a traceback, a NaN in the JSON or a numeric failure
    code, out, err = _run(capsys, "analyze", *argv)
    assert code == 2
    assert "invalid input" in err
    assert out == ""


def test_analyze_divergent_exit_code(capsys):
    code, _, err = _run(capsys, "analyze", "--lam", "2", "--mu", "1")
    assert code == 3
    assert "numeric" in err


def test_invalid_scenario_exit_code(capsys):
    code, _, err = _run(capsys, "regions", "--scenario", "builtin:nope")
    assert code == 2
    code, _, err = _run(capsys, "regions", "--scenario", "/does/not/exist.json")
    assert code == 2


def test_simulate_outputs(tmp_path, capsys, monkeypatch):
    # the region is enumerated once, not once more per replication
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return enumerate_regions(scenario)

    monkeypatch.setattr(cli, "enumerate_regions", counting)
    monkeypatch.setattr(engine, "enumerate_regions", counting)
    out_dir = tmp_path / "run"
    code, out, _ = _run(
        capsys, "simulate", "--scenario", "builtin:demo",
        "--strategy", "naive:2,1,0", "--horizon", "15",
        "--replications", "2", "--seed", "3", "--knowledge", "full",
        "--out", str(out_dir),
    )
    assert code == 0
    with open(out_dir / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert "u_sigma" in rows[0]
    with open(out_dir / "requests.csv") as fh:
        req_rows = list(csv.DictReader(fh))
    assert {"replication", "request_id", "disposition", "wait"} <= set(req_rows[0])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["scenario_fingerprint"] == demo_scenario().fingerprint()
    assert "metrics.csv" in manifest["outputs"]
    assert len(calls) == 1


@pytest.mark.parametrize("trace", [False, True])
def test_simulate_memory_does_not_grow_with_replications(tmp_path, capsys, trace):
    # each replication's requests are written as it finishes: from 1 to 4
    # replications the peak must grow by less than what one replication's
    # metrics hold, records included
    argv = ["simulate", "--scenario", "builtin:demo", "--strategy", "naive:2,1,0",
            "--horizon", "100", "--seed", "1", "--knowledge", "full"] + ["--trace"] * trace
    scenario = demo_scenario()
    region = enumerate_regions(scenario)
    config = engine.SimConfig(horizon=100.0, master_seed=1, knowledge=KnowledgeRegime("full"))
    strategy = cli.load_strategy("naive:2,1,0", scenario, region, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = engine.run_replication(scenario, strategy, config, 0, region=region)
        one_run = tracemalloc.get_traced_memory()[0] - before
        del m
        peaks = []
        for reps in (1, 4):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            code, *_ = _run(capsys, *argv, "--replications", str(reps),
                            "--out", str(tmp_path / f"reps{reps}"))
            assert code == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    with open(tmp_path / "reps4" / "requests.csv") as fh:
        assert {row["replication"] for row in csv.DictReader(fh)} == {"0", "1", "2", "3"}
    assert peaks[1] - peaks[0] < one_run


def test_simulate_refuses_existing_dir(tmp_path, capsys):
    out_dir = tmp_path / "run"
    args = ("simulate", "--scenario", "builtin:tiny", "--strategy", "naive:1,2,0",
            "--horizon", "2", "--out", str(out_dir))
    assert _run(capsys, *args)[0] == 0
    assert _run(capsys, *args)[0] == 2
    assert _run(capsys, *args, "--force")[0] == 0


def test_simulate_trace(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, *_ = _run(
        capsys, "simulate", "--scenario", "builtin:tiny",
        "--strategy", "naive:1,2,0", "--horizon", "5", "--trace",
        "--out", str(out_dir),
    )
    assert code == 0
    events = [json.loads(line)
              for line in (out_dir / "events.jsonl").read_text().splitlines()]
    assert events
    assert {"replication", "time", "kind", "state"} <= set(events[0])
    assert {e["replication"] for e in events} == {0}

    # several replications run serially; metrics.csv is the untraced run's
    argv = ["simulate", "--scenario", "builtin:demo", "--strategy", "naive:1,2,0",
            "--horizon", "20", "--seed", "3", "--knowledge", "full",
            "--replications", "2"]
    code, *_ = _run(capsys, *argv, "--trace", "--out", str(tmp_path / "traced"))
    assert code == 0
    code, *_ = _run(capsys, *argv, "--out", str(tmp_path / "plain"))
    assert code == 0
    assert (tmp_path / "traced" / "metrics.csv").read_text() == \
        (tmp_path / "plain" / "metrics.csv").read_text()
    events = [json.loads(line)
              for line in (tmp_path / "traced" / "events.jsonl").read_text().splitlines()]
    reps = [e["replication"] for e in events]
    assert reps == sorted(reps) and set(reps) == {0, 1}
    with open(tmp_path / "traced" / "requests.csv") as fh:
        requests = list(csv.DictReader(fh))
    for rep in (0, 1):
        arrivals = [e for e in events if e["replication"] == rep and e["kind"] == "request"]
        assert len(arrivals) == sum(r["replication"] == str(rep) for r in requests)
    manifest = json.loads((tmp_path / "traced" / "manifest.json").read_text())
    assert "events.jsonl" in manifest["outputs"]


def test_fit_command(tmp_path, capsys):
    out_dir = tmp_path / "run"
    _run(capsys, "simulate", "--scenario", "builtin:demo",
         "--strategy", "naive:1,2,0", "--horizon", "40", "--seed", "5",
         "--knowledge", "blind", "--risk-factor", "0.1",
         "--initial-state", "random_full", "--out", str(out_dir))
    code, out, _ = _run(capsys, "fit", "--input", str(out_dir / "requests.csv"),
                        "--column", "wait", "--kind", "exponential",
                        "--where", "disposition=reneged")
    assert code == 0
    report = json.loads(out)
    assert report["parameter"] > 0
    assert report["n"] > 10

    code, out, _ = _run(capsys, "fit", "--input", str(out_dir / "requests.csv"),
                        "--column", "wait", "--kind", "geometric",
                        "--where", "disposition=accepted")
    assert code == 0
    assert json.loads(out)["kind"] == "geometric"


def test_fit_missing_column_exit_code(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n")
    code, _, err = _run(capsys, "fit", "--input", str(path), "--column", "zzz")
    assert code == 2


@pytest.mark.parametrize("where", ["a", "zzz=1", "=1"])
def test_fit_rejects_a_where_filter_without_a_column(tmp_path, capsys, where):
    # such a filter once dropped every row and reported an empty sample
    path = tmp_path / "data.csv"
    path.write_text("a,b\n" + "1,2\n" * 20)
    code, out, err = _run(capsys, "fit", "--input", str(path), "--column", "b",
                          "--where", where)
    assert code == 2
    assert "column=value" in err
    assert out == ""


def test_markov_command(capsys):
    code, out, _ = _run(capsys, "markov", "--scenario", "builtin:demo",
                        "--strategy", "naive:2,1,0", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "embedded-chain approximation"
    assert report["converged"] is True
    assert 0.0 <= report["residual"] <= 1e-9
    assert "iterations" not in report
    assert len(report["acceptance_rates"]) == 2
    assert len(report["top_states"]) == 10


def test_markov_explicit_empty_probs(capsys):
    code, out, _ = _run(capsys, "markov", "--scenario", "builtin:demo",
                        "--strategy", "naive:2,1,0", "--empty-probs", "1,1")
    assert code == 0
    report = json.loads(out)
    # always-empty queues: the chain never leaves the empty initial state
    assert report["acceptance_rates"] == [0.0, 0.0]
    assert report["top_states"][0]["state"] == [0, 0]
    code, _, _ = _run(capsys, "markov", "--scenario", "builtin:demo",
                      "--strategy", "naive:2,1,0", "--empty-probs", "1")
    assert code == 2


def test_markov_default_strategy_is_the_seeds_random_strategy(capsys):
    # with no --strategy the chain evaluates the first strategy that the
    # seed's strategy stream draws
    code, out, _ = _run(capsys, "markov", "--empty-probs", "0.3,0.6")
    assert code == 0
    report = json.loads(out)
    sc = demo_scenario()
    region = enumerate_regions(sc)
    strategy = core.random_strategy(region, engine.substream(0, 0, 997))
    want = analytic_evaluation(sc, strategy, region, empty_probs=[0.3, 0.6])
    assert report["acceptance_rates"] == want["acceptance_rates"].tolist()
    assert report["u_sigma"] == want["u_sigma"]
    top = [list(region.feasible[i]) for i in np.argsort(want["long_run"])[::-1][:10]]
    assert [s["state"] for s in report["top_states"]] == top
    naive = analytic_evaluation(sc, core.naive_strategy(region, [1, 2, 0]), region,
                                empty_probs=[0.3, 0.6])
    assert report["u_sigma"] != naive["u_sigma"]


def test_markov_refuses_negative_fixed_point_rounds(capsys):
    # a negative count was taken as one damped round without a word
    code, _, err = _run(capsys, "markov", "--scenario", "builtin:demo",
                        "--strategy", "naive:2,1,0", "--seed", "1",
                        "--fixed-point-rounds", "-1")
    assert code == 2
    assert "fixed_point_rounds" in err


def test_markov_refuses_rounds_with_given_empty_probs(capsys):
    # given queue-empty probabilities leave the rounds nothing to refine;
    # they were ignored
    code, _, err = _run(capsys, "markov", "--scenario", "builtin:demo",
                        "--strategy", "naive:2,1,0", "--empty-probs", "0.3,0.6",
                        "--fixed-point-rounds", "2")
    assert code == 2
    assert "--fixed-point-rounds" in err


def test_markov_fixed_point_round_returns_its_own_solve(capsys):
    # one round solves the chain once with the bootstrap's rates, as no round
    # does: it returns that solve's rates, not a blend with the bootstrap's,
    # and it is not converged unless the rates settled
    argv = ("markov", "--scenario", "builtin:demo", "--strategy", "naive:2,1,0", "--seed", "1")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    plain = json.loads(out)
    code, out, _ = _run(capsys, *argv, "--fixed-point-rounds", "1")
    assert code == 0
    one_round = json.loads(out)
    assert one_round["acceptance_rates"] == plain["acceptance_rates"]
    assert one_round["u_sigma"] == plain["u_sigma"]
    assert plain["converged"] is True
    assert one_round["converged"] is False


@pytest.mark.parametrize("argv, option", [
    (("analyze", "--lam", "1", "--mu", "2", "--pmf-entries", "-3"), "--pmf-entries"),
    (("markov", "--scenario", "builtin:demo", "--strategy", "naive:2,1,0",
      "--top-k", "-350"), "--top-k"),
    (("search", "--scenario", "builtin:tiny", "--queue-cap", "-5"), "--queue-cap"),
])
def test_cli_refuses_counts_below_their_range(capsys, argv, option):
    # a negative count was taken as a slice from the end
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert option in err
    assert out == ""


def test_search_command(capsys):
    code, out, _ = _run(capsys, "search", "--scenario", "builtin:demo",
                        "--n-strategies", "2", "--horizon", "8",
                        "--replications", "1", "--knowledge", "full",
                        "--initial-state", "random_full", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("strategy_id,")
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds.count("random") == 2
    for bench in ("prefer1", "prefer2", "greedy_single"):
        assert kinds.count(bench) == 1


@pytest.mark.parametrize("argv", [
    ("search", "--n-strategies", "1"),
    ("simulate", "--out", "unused"),
], ids=["search", "simulate"])
def test_search_has_no_threads_option(capsys, argv):
    # replications run one after another in one process
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scenario", "builtin:tiny", "--horizon", "5", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_regions_has_no_seed_option(capsys):
    # enumeration draws nothing
    with pytest.raises(SystemExit) as exc:
        main(["regions", "--scenario", "builtin:tiny", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_regions_past_the_state_bound_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(core, "MAX_REGION_STATES", 100)
    code, out, err = _run(capsys, "regions", "--scenario", "builtin:demo")
    assert code == 2
    assert "more than 100 states" in err
    assert out == ""


def test_preset_regions(tmp_path, capsys):
    out_dir = tmp_path / "reg"
    code, out, _ = _run(capsys, "preset", "regions", "--scenario",
                        "builtin:tiny", "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "regions.json").read_text())
    assert report["n_admissible"] == 7


def test_preset_fig4_small_scale_reproducible(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, *_ = _run(capsys, "preset", "fig4_iat", "--scenario",
                        "builtin:demo", "--scale", "0.001", "--seed", "9",
                        "--out", str(d))
        assert code == 0
    csv_a = (dirs[0] / "fig4_iat_fits.csv").read_bytes()
    csv_b = (dirs[1] / "fig4_iat_fits.csv").read_bytes()
    assert csv_a == csv_b
    summary = json.loads((dirs[0] / "fig4_summary.json").read_text())
    assert summary["n_strategies"] == 1
    assert 0.0 <= summary["patient_success_rate"] <= 1.0
    # the patient arm is a capped queue, and the summary says how capped
    patient, impatient = summary["patient_counts"], summary["impatient_counts"]
    assert patient["cap_rejections"] > 0
    for counts in (patient, impatient):
        assert counts["arrivals"] >= counts["cap_rejections"] + counts["still_waiting"]
        assert counts["still_waiting"] > 0


def test_preset_rejects_bad_scale(tmp_path, capsys):
    code, _, err = _run(capsys, "preset", "table3", "--scale", "1.5",
                        "--out", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("out", ["run", "made/for/run", "empty"])
def test_a_failed_preset_leaves_no_directory_it_made(tmp_path, capsys, out):
    # table3 refuses the scenario only once it runs; it made its output
    # directory first, and left it behind empty. A directory that was there
    # before stays
    data = tiny_scenario().to_dict()
    data["slice_types"] = [dict(data["slice_types"][0], cost=[0.0])]
    scenario = tmp_path / "zero.json"
    scenario.write_text(json.dumps(data))
    (tmp_path / "empty").mkdir()
    code, out_text, err = _run(capsys, "preset", "table3", "--scenario", str(scenario),
                               "--out", str(tmp_path / out))
    assert code == 2
    assert "all-zero cost vector" in err and out_text == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "zero.json"]
    assert not any((tmp_path / "empty").iterdir())


@pytest.mark.parametrize("error", [KeyboardInterrupt, InvalidInputError])
@pytest.mark.parametrize("out", ["made/for/run", "empty"])
def test_a_failed_simulate_leaves_no_directory_it_made(tmp_path, capsys, monkeypatch,
                                                       error, out):
    # a run stopped at its second replication left the first one's requests
    # behind, and a rerun without --force was refused. A directory that was
    # there before stays
    def second_fails(scenario, strategy, config, rep, **kwargs):
        if rep == 1:
            raise error("stopped")
        return engine.run_replication(scenario, strategy, config, rep, **kwargs)

    monkeypatch.setattr(cli, "run_replication", second_fails)
    (tmp_path / "empty").mkdir()
    argv = ["simulate", "--scenario", "builtin:tiny", "--strategy", "naive:1,2,0",
            "--horizon", "50", "--replications", "3", "--out", str(tmp_path / out)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert _run(capsys, *argv)[0] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["empty"]


def _file_argv(tmp_path, text, *argv):
    """``argv`` with "{path}" standing for a file that holds ``text``, which
    may be bytes."""
    path = tmp_path / "input"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    return tuple(str(path) if a == "{path}" else a for a in argv)


def _tiny_strategy_argv(tmp_path, columns):
    # the right fingerprint, so only the columns are at fault
    text = json.dumps({"scenario_fingerprint": tiny_scenario().fingerprint(),
                       "columns": columns})
    return _file_argv(tmp_path, text, "simulate", "--scenario", "builtin:tiny",
                      "--strategy", "{path}", "--horizon", "5", "--out", str(tmp_path / "run"))


def _tiny_simulate_argv(tmp_path, *options):
    # a valid run until ``options``, which come last and so override
    return ("simulate", "--scenario", "builtin:tiny", "--strategy", "naive:1,2,0",
            "--horizon", "5", *options, "--out", str(tmp_path / "run"))


N_TINY_ADMISSIBLE = enumerate_regions(tiny_scenario()).n_admissible


def _tiny_scenario_json(resources=None, **first_type):
    data = tiny_scenario().to_dict()
    data["resources"] = resources or data["resources"]
    data["slice_types"][0].update(first_type)
    return json.dumps(data)


@pytest.mark.parametrize("make_argv", [
    lambda tmp: _file_argv(tmp, "wait\n1.5\nsoon\n", "fit", "--input", "{path}",
                           "--column", "wait"),
    lambda tmp: _file_argv(tmp, "wait\n1.5\nnan\n2.0\n", "fit", "--input", "{path}",
                           "--column", "wait", "--kind", "exponential"),
    lambda tmp: _file_argv(tmp, _tiny_scenario_json(resources=["one"]),
                           "regions", "--scenario", "{path}"),
    lambda tmp: _file_argv(tmp, _tiny_scenario_json(arrival_rate=math.nan),
                           "regions", "--scenario", "{path}"),
    lambda tmp: _file_argv(tmp, _tiny_scenario_json(utility_rate=math.nan),
                           "regions", "--scenario", "{path}"),
    lambda tmp: _file_argv(tmp, "[1, 2]", "regions", "--scenario", "{path}"),
    lambda tmp: _file_argv(tmp, "resources: 1", "regions", "--scenario", "{path}"),
    lambda tmp: ("markov", "--scenario", "builtin:demo", "--strategy", "naive:2,1,0",
                 "--empty-probs", "a,b"),
    lambda tmp: _tiny_strategy_argv(tmp, 5),
    lambda tmp: _tiny_strategy_argv(tmp, [[1, 2, 0]] * (N_TINY_ADMISSIBLE - 1)),
    lambda tmp: _tiny_strategy_argv(tmp, [[1, 1, 0]] * N_TINY_ADMISSIBLE),
    lambda tmp: _tiny_simulate_argv(tmp, "--strategy", "naive:1,x"),
    lambda tmp: _tiny_simulate_argv(tmp, "--horizon", "nan"),
    lambda tmp: _tiny_simulate_argv(tmp, "--horizon", "inf"),
    lambda tmp: ("search", "--scenario", "builtin:tiny", "--horizon", "nan",
                 "--n-strategies", "1"),
    lambda tmp: _tiny_simulate_argv(tmp, "--knowledge", "blind", "--risk-factor", "nan"),
    lambda tmp: ("fit", "--input", str(tmp), "--column", "wait"),
    lambda tmp: _file_argv(tmp, b"wait\n\xff\xfe\n", "fit", "--input", "{path}",
                           "--column", "wait"),
    lambda tmp: ("regions", "--scenario", str(tmp)),
    lambda tmp: _tiny_simulate_argv(tmp, "--strategy", str(tmp)),
    lambda tmp: _file_argv(tmp, "", *_tiny_simulate_argv(tmp), "--out", "{path}"),
    lambda tmp: _file_argv(tmp, "", "preset", "regions", "--scenario", "builtin:tiny",
                           "--out", "{path}"),
    lambda tmp: ("search", "--scenario", "builtin:tiny", "--seed", "-1", "--n-strategies", "1",
                 "--horizon", "5"),
    lambda tmp: ("markov", "--scenario", "builtin:tiny", "--seed", "-1"),
    lambda tmp: ("markov", "--scenario", "builtin:tiny", "--strategy", "naive:1,2,0",
                 "--empty-probs", "0.5,0.5", "--seed", "-1"),
    lambda tmp: _tiny_simulate_argv(tmp, "--seed", "-3"),
    lambda tmp: ("preset", "fig4_iat", "--scenario", "builtin:tiny", "--scale", "0.002",
                 "--seed", "-1", "--out", str(tmp / "run")),
    lambda tmp: ("preset", "regions", "--scenario", "builtin:tiny", "--seed", "-2",
                 "--out", str(tmp / "run")),
], ids=["fit-cell", "fit-nan-cell", "scenario-value", "scenario-nan-rate",
        "scenario-nan-utility", "scenario-not-object", "scenario-not-json", "empty-probs",
        "strategy-columns-not-list", "strategy-too-few-columns", "strategy-not-permutation",
        "naive-strategy-not-integers", "simulate-nan-horizon", "simulate-inf-horizon",
        "search-nan-horizon", "nan-risk-factor", "fit-input-directory", "fit-input-binary",
        "scenario-directory", "strategy-directory", "simulate-out-is-a-file",
        "preset-out-is-a-file", "search-negative-seed", "markov-negative-seed",
        "markov-negative-seed-drawing-nothing", "simulate-negative-seed",
        "preset-negative-seed", "preset-negative-seed-drawing-nothing"])
def test_malformed_outside_input_exits_as_invalid(tmp_path, capsys, make_argv):
    # each once ended in a traceback and exit 1, ran with a type never served,
    # never reached its horizon, or set no blind deadline
    code, out, err = _run(capsys, *make_argv(tmp_path))
    assert code == 2
    assert "invalid input" in err
    assert out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("objective", ["wait", "admission"])
def test_analytic_search_refuses_a_wait_or_admission_objective(capsys, objective):
    # every chain row scored NaN, and the one ranked greedy row came last
    code, out, err = _run(capsys, "search", "--scenario", "builtin:tiny",
                          "--evaluator", "analytic", "--objective", objective,
                          "--n-strategies", "3", "--horizon", "5",
                          "--replications", "1", "--queue-cap", "10")
    assert code == 2
    assert "invalid input" in err
    assert out == ""
