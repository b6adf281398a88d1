"""Tests of the benchmark itself: ``python -m pytest perfbench/tests -q``.

Not part of tier-1 (``pytest.ini`` collects ``tests/`` only): the two
``--quick`` runs start some thirty interpreters and take about half a
minute.
"""

import dataclasses
import json
import re

import pytest

from perfbench._env import ROOT, ensure_paths

ensure_paths()

from perfbench import cli, compare, tracing  # noqa: E402
from perfbench.workloads import SIM_KEYS, WORKLOADS, Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def run_cli(tmp_path, name, *argv):
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    with open(out) as source:
        return json.load(source)


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("quick"), "a.json",
                   "--quick", "--seed", "5")


def hook_objects():
    """The raw object behind every hook target, as found right now."""
    return {target: tracing._resolve(target)[2]
            for targets in tracing.HOOKS.values() for target in targets}


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_is_within_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["perfbench"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in declared["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_workloads_declared_are_the_workloads_run(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for entry in declared["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


# -- a quick end-to-end run --------------------------------------------------

def test_quick_run_reports_every_declared_metric(declared, quick_report):
    assert list(quick_report["workloads"]) == list(WORKLOADS)
    for name, block in quick_report["workloads"].items():
        if block["status"] == "skipped":
            assert name == "real_serve" and block["reason"]
            continue
        assert block["attempted"] >= 1 and block["failed"] == 0, block
        assert set(block["sim"]) == {"small", "large"}
        assert all(tuple(sim) == SIM_KEYS for sim in block["sim"].values())
        for metric in declared["end_to_end"]:
            got = block["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0 and got["n"] >= 1
        line = json.loads(cli.contract_line(block))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"]
                                        for m in declared["end_to_end"]}
    host = quick_report["host"]
    assert {"nproc", "allowed_cpus", "loadavg", "python", "platform",
            "comparable"} <= set(host)


def test_two_quick_runs_agree_on_simulated_time(tmp_path, quick_report):
    again = run_cli(tmp_path, "b.json", "--quick", "--seed", "5")
    for name, block in quick_report["workloads"].items():
        if block["status"] == "ok":
            assert again["workloads"][name]["sim"] == block["sim"]
    other_seed = run_cli(tmp_path, "c.json", "--quick", "--seed", "6",
                         "--workload", "serve_open")
    assert other_seed["workloads"]["serve_open"]["sim"] \
        != quick_report["workloads"]["serve_open"]["sim"]


# -- the traced pass ---------------------------------------------------------

def test_traced_pass_emits_every_layer_metric_and_removes_its_wrappers(
        declared, tmp_path):
    before = hook_objects()
    report = run_cli(tmp_path, "t.json", "--quick", "--trace", "1",
                     "--seconds", "0", "--workload", "serve_open",
                     "--workload", "barrier_lu")
    assert all(after is before[target]
               for target, after in hook_objects().items())
    for name in ("serve_open", "barrier_lu"):
        block = report["workloads"][name]
        assert block["failed"] == 0 and block["hooks_missing"] == []
        layers = block["layers"]
        assert set(layers) == {m["name"] for m in declared["per_layer"]}
        for metric in declared["per_layer"]:
            got = layers[metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] is not None and got["value"] >= 0
        # >= 0.97 at full size; a --quick iteration lasts 20-40 ms, where
        # one scheduler hiccup between spans is already a few percent.
        assert layers["trace.coverage"]["value"] >= 0.90
        assert layers["trace.overhead_ratio"]["value"] > 0
        with open(ROOT / block["trace_file"]) as source:
            trace = json.load(source)
        assert trace["fields"] == list(tracing.FIELDS)
        assert len(trace["spans"]) == layers["trace.spans"]["value"]
        assert trace["spans"][0][tracing.NAME] == "iteration"
    serve = report["workloads"]["serve_open"]["layers"]
    assert serve["kernel.spaces_started"]["value"] == 97     # 96 + root
    assert serve["kernel.put_calls"]["value"] == 96
    lu = report["workloads"]["barrier_lu"]["layers"]
    assert lu["runtime.thread_forks"]["value"] == 8
    assert lu["mem.cow_breaks"]["value"] > 0
    assert lu["runtime.barrier_rounds"]["value"] == 7        # 2 * 64/16 - 1
    assert lu["cluster.messages"]["value"] == 0


def test_untraced_iterations_call_the_original_functions():
    from repro.kernel.kernel import Kernel
    original = vars(Kernel)["sys_put"]
    seen = []
    workload = WORKLOADS["serve_open"]

    def checking_run(args):
        seen.append(vars(Kernel)["sys_put"] is original)
        return workload.run(args)

    probe = dataclasses.replace(workload, run=checking_run)
    case = probe.case("small", 1, quick=True)
    assert probe.iterate(case)[0].failed == 0
    rec = tracing.Recorder()
    with tracing.tracing(rec) as missing:
        assert probe.iterate(case, rec)[0].failed == 0
    assert missing == [] and seen == [True, False]
    assert vars(Kernel)["sys_put"] is original


def test_a_moved_hook_is_reported_not_fatal(monkeypatch):
    hooks = dict(tracing.HOOKS)
    hooks["cluster.place"] = ("repro.kernel.machine:Machine.placed_elsewhere",)
    hooks["mem.access"] = ("repro.mem.no_such_module:AddressSpace.read",
                           "repro.mem.addrspace:AddressSpace.write")
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    workload = WORKLOADS["circuit_fat"]
    case = workload.case("small", 1, quick=True)
    rec = tracing.Recorder()
    with tracing.tracing(rec) as missing:
        outcome, _, _ = workload.iterate(case, rec)
    assert outcome.failed == 0
    assert missing == ["repro.kernel.machine:Machine.placed_elsewhere",
                       "repro.mem.no_such_module:AddressSpace.read"]
    layers = tracing.layer_metrics(rec.spans, rec.cow_breaks, outcome, missing)
    assert layers["trace.hooks_missing"] == 2
    assert layers["cluster.place_calls"] is None
    assert layers["cluster.place_us_per_call"] is None
    assert layers["mem.access_calls"] > 0      # one of its two hooks is left
    assert layers["kernel.put_calls"] == 8


# -- span arithmetic ---------------------------------------------------------

def test_self_time_arithmetic_on_a_synthetic_tree():
    #        id name    start end  parent uid thread inner
    spans = [[1, "root",   0.0, 10.0, 0, None, 0, 0.0],
             [2, "put",    1.0,  9.0, 1, "s1", 0, 0.0],
             [3, "baton",  2.0,  8.0, 2, "s2", 0, 5.0],   # guest ran 5 s
             [4, "guest",  2.4,  7.6, 3, "s2", 1, 0.0],   # woken by span 3
             [5, "park",   3.0,  3.2, 4, "s2", 1, 0.2],   # blocked: no self
             [6, "touch",  4.0,  6.0, 4, "s2", 1, 0.0]]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({
        1: 2.0,        # 10 - put(8)
        2: 2.0,        # 8 - baton(6)
        3: 1.0,        # 6 - inner(5); the guest span is another thread's
        4: 3.0,        # 5.2 - park(0.2) - touch(2)
        5: 0.0,
        6: 2.0})


def test_layer_metrics_of_a_synthetic_iteration():
    spans = [[1, "iteration",     0.0, 1.0, 0, None, 0, 0.0],
             [2, "kernel.put",    0.1, 0.5, 1, "s1", 0, 0.0],
             [3, "cluster.place", 0.2, 0.3, 2, "s1", 0, 0.0],
             [4, "kernel.put",    0.5, 0.9, 1, "s1", 0, 0.0]]
    outcome = Outcome(2, 0, dict.fromkeys(SIM_KEYS, 7), {"total_cycles": 11})
    layers = tracing.layer_metrics(spans, 3, outcome, [])
    assert layers["kernel.put_calls"] == 2
    assert layers["kernel.put_self_s"] == pytest.approx(0.7)
    assert layers["cluster.place_us_per_call"] == pytest.approx(1e5)
    assert layers["trace.coverage"] == pytest.approx(0.8)
    assert layers["mem.cow_breaks"] == 3
    assert layers["sim.total_cycles"] == 11
    assert layers["timing.segments"] == 7


# -- the correctness gate ----------------------------------------------------

def test_a_wrong_oracle_value_is_counted_as_failed():
    workload = WORKLOADS["serve_open"]
    case = workload.case("small", 1, quick=True)
    outcome, _, _ = workload.iterate(case)
    assert (outcome.ops, outcome.failed) == (12, 0)
    case.expected[3] ^= 1
    outcome, _, _ = workload.iterate(case)
    assert (outcome.ops, outcome.failed) == (12, 1)
    assert "1 wrong request values" in outcome.reason


def test_a_drifting_fingerprint_or_a_crash_fails_the_whole_iteration():
    workload = WORKLOADS["circuit_fat"]
    case = workload.case("small", 1, quick=True)
    assert workload.iterate(case)[0].failed == 0
    case.sim = dict(case.sim, makespan=case.sim["makespan"] + 1)
    outcome, _, _ = workload.iterate(case)
    assert outcome.failed == outcome.ops == 8
    case.args["spec"] = "not a spec"
    outcome, _, _ = workload.iterate(case)
    assert outcome.failed == outcome.ops == 8 and "TypeError" in outcome.reason


# -- compare -----------------------------------------------------------------

def report_with(host_us=100.0, q=(99.0, 101.0), comparable=True, failed=0,
                makespan=5):
    metric = {"value": host_us, "unit": "us", "q1": q[0], "q3": q[1], "n": 8}
    fixed = {"value": 1.0, "unit": "x", "q1": 1.0, "q3": 1.0, "n": 1}
    return {"seed": 1, "quick": False, "trace": False,
            "host": {"comparable": comparable},
            "workloads": {"serve_open": {
                "status": "ok", "attempted": 100, "failed": failed,
                "sim": {"large": {"makespan": makespan}},
                "metrics": {"host_us_per_op": metric, "scale_slope": fixed,
                            "peak_rss_mb": fixed, "setup_s": fixed}}}}


def test_compare_verdicts():
    bounds = compare.load_bounds()
    bound = bounds["host_us_per_op"]["bound"]

    def host_row(a, b):
        rows, problems = compare.compare(a, b, bounds)
        return rows[0][-1], problems

    assert host_row(report_with(), report_with(100 * (1 + bound / 2))) \
        == ("ok", [])
    word, problems = host_row(report_with(), report_with(100 * (1 + 2 * bound)))
    assert word == "out-of-bound" and len(problems) == 1
    assert host_row(report_with(100 * (1 + 2 * bound)), report_with())[0] == "ok"
    wide = (100 - 200 * bound, 100 + 200 * bound)
    assert host_row(report_with(q=wide), report_with()) == ("unresolved", [])
    assert host_row(report_with(), report_with(makespan=6))[1] \
        == ["serve_open: sim fingerprints differ"]
    assert "failed share" in host_row(report_with(), report_with(failed=1))[1][0]
    assert compare.incomparable(report_with(), report_with()) is None
    assert "comparable: false" in compare.incomparable(
        report_with(), report_with(comparable=False))


def test_compare_exit_codes(tmp_path, capsys):
    paths = {}
    for name, report in (("a", report_with()), ("same", report_with()),
                         ("slow", report_with(200.0)),
                         ("loaded", report_with(comparable=False))):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as out:
            json.dump(report, out)
    assert compare.main([paths["a"], paths["same"]]) == 0
    assert compare.main([paths["a"], paths["slow"]]) == 1
    assert "out-of-bound" in capsys.readouterr().out
    assert compare.main([paths["a"], paths["loaded"]]) == 2
    assert compare.main([paths["a"]]) == 2
