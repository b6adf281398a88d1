"""The verdict ``benchmarks/host_pairs.py`` prints per metric: the
choosing-metrics rules for a claimed gain and for "must not move",
on fixed lists of paired runs — and the schema of the line ``--record``
appends to the pairs ledger, with the benchmark runs stubbed."""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "benchmarks"))
import host_pairs  # noqa: E402
from host_pairs import verdict  # noqa: E402

#: Ten parent runs around 100 with a quartile spread of 2.
PARENT = [99, 100, 101, 98, 102, 100, 99, 101, 100, 100]


def shifted(values, by):
    return [v + by for v in values]


@pytest.mark.parametrize("change,better,expected", [
    # Every pair won by 5, far beyond the parent's spread of 2.
    (shifted(PARENT, -5), "lower", "claim holds"),
    (shifted(PARENT, +5), "higher", "claim holds"),
    # 8 of 10 pairs won by a wide margin: not a claim, and no worse.
    (shifted(PARENT[:8], -5) + shifted(PARENT[8:], +1), "lower",
     "within bound"),
    # Every pair won, but by less than the parent's own spread.
    (shifted(PARENT, -1), "lower", "within bound"),
    # 30 % worse against a 20 % bound, in either direction.
    (shifted(PARENT, +30), "lower", "worse beyond bound"),
    (shifted(PARENT, -30), "higher", "worse beyond bound"),
    # 10 % worse stays inside the bound.
    (shifted(PARENT, +10), "lower", "within bound"),
])
def test_verdict_on_a_tight_parent(change, better, expected):
    assert verdict(PARENT, change, better, 0.2) == expected


#: Parent runs whose quartile spread (about 95) dwarfs a 20 % bound.
WIDE = [100, 101, 102, 103, 104, 196, 197, 198, 199, 200]


def test_a_spread_wider_than_the_bound_is_unresolved():
    assert verdict(WIDE, list(reversed(WIDE)), "lower", 0.2) == "unresolved"


def test_every_change_run_beating_every_parent_run_resolves_it():
    # Not a claim (the median gap is below the spread), but no parent
    # run reads better than any change run.
    assert verdict(WIDE, [99] * 10, "lower", 0.2) == "within bound"
    assert verdict(WIDE, [201] * 10, "higher", 0.2) == "within bound"


DECLARED = {"command": ["bench"], "end_to_end": [
    {"name": "host_us_per_op", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]}


def test_a_record_holds_every_pair_and_the_verdicts(monkeypatch, tmp_path):
    runs = []

    def run_once(command, cwd, workload, seed, seconds):
        runs.append((cwd, seed))
        change = cwd == "change"
        return (0, {"host_us_per_op": 100.0 - 10 * change + seed % 3,
                    "peak_rss_mb": 50.0}, seed != 12 or change)

    def count_run(cwd, workload, seed):
        return {"handoffs_per_op": 1.0, "workers_started": 2,
                "collections": [0, 0, 0], "sizer_calls": 0,
                "sizer_pages": 0, "loss_draws": 0, "ledger_entries": 0}

    monkeypatch.setattr(host_pairs, "run_once", run_once)
    monkeypatch.setattr(host_pairs, "count_run", count_run)
    record = host_pairs.compare(DECLARED, {"parent": "parent",
                                           "change": "change"},
                                "circuit_fat", 4, 10, 2.5, "HEAD")
    # Alternating order, one fresh seed per pair.
    assert runs[:4] == [("parent", 10), ("change", 10),
                        ("change", 11), ("parent", 11)]
    assert set(record) == {"workload", "seeds", "seconds", "pairs",
                           "failed", "comparable", "metrics", "counts"}
    assert record["seeds"] == [10, 11, 12, 13]
    assert (record["seconds"], record["pairs"]) == (2.5, 4)
    assert record["failed"] == {"parent": 0, "change": 0}
    assert record["comparable"] == {"parent": [True, True, False, True],
                                    "change": [True] * 4}
    host = record["metrics"]["host_us_per_op"]
    assert host["parent"] == [101.0, 102.0, 100.0, 101.0]
    assert host["change"] == [91.0, 92.0, 90.0, 91.0]
    assert host["median"] == {"parent": 101.0, "change": 91.0}
    assert host["q1"]["parent"] <= 101.0 <= host["q3"]["parent"]
    assert (host["wins"], host["losses"]) == (4, 0)
    assert host["verdict"] == "claim holds"
    assert record["metrics"]["peak_rss_mb"]["verdict"] == "within bound"
    assert record["counts"] == dict.fromkeys(
        ("parent", "change"), count_run("", "circuit_fat", 10))

    ledger = tmp_path / "pairs.jsonl"
    head = {"parent": "a" * 40, "change": "b" * 40, "dirty": True}
    host_pairs.append_record(ledger, head, record)
    host_pairs.append_record(ledger, head, record)
    lines = ledger.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1]) == {**head, **record}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_ledger_names_the_tree_the_change_side_ran(tmp_path,
                                                       monkeypatch):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
            text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("out/\n")
    (tmp_path / "a.py").write_text("A = 1\n")
    git("add", "--all")
    git("commit", "-q", "-m", "parent")
    parent = git("rev-parse", "HEAD")
    (tmp_path / "a.py").write_text("A = 2\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "change")
    head = git("rev-parse", "HEAD")
    monkeypatch.setattr(host_pairs, "ROOT", tmp_path)
    # A clean tree is HEAD (ignored output does not make it dirty).
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "report.json").write_text("{}")
    assert host_pairs.commits("HEAD~1") == {
        "parent": parent, "change": head, "dirty": False}
    # An edited tree is its own tree object, new files included, built
    # without touching the index the user has staged.
    (tmp_path / "a.py").write_text("A = 3\n")
    (tmp_path / "b.py").write_text("B = 1\n")
    git("add", "b.py")
    staged = (tmp_path / ".git" / "index").read_bytes()
    (tmp_path / "b.py").write_text("B = 2\n")
    (tmp_path / "c.py").write_text("C = 1\n")
    record = host_pairs.commits("HEAD~1")
    assert record["parent"] == parent and record["dirty"] is True
    assert git("cat-file", "-t", record["change"]) == "tree"
    assert git("ls-tree", "--name-only", record["change"]).split() == \
        [".gitignore", "a.py", "b.py", "c.py"]
    for name in ("a.py", "b.py", "c.py"):
        assert git("rev-parse", f"{record['change']}:{name}") == \
            git("hash-object", name)
    assert (tmp_path / ".git" / "index").read_bytes() == staged


def test_counts_ride_the_record_of_every_workload(monkeypatch, tmp_path):
    declared = json.loads((host_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    counted = []

    def count_run(cwd, workload, seed):
        counted.append((workload, seed))
        change = cwd == host_pairs.ROOT
        return {"handoffs_per_op": 2.0 - change, "workers_started": 2,
                "collections": [113, 10, 0], "sizer_calls": 768 - 744 * change,
                "sizer_pages": 768, "loss_draws": 774,
                "ledger_entries": 94640 - 68944 * change}

    def run_once(command, cwd, workload, seed, seconds):
        return 0, {m["name"]: 1.0 for m in declared["end_to_end"]}, True

    monkeypatch.setattr(host_pairs, "unpack", lambda revision, dest: None)
    monkeypatch.setattr(host_pairs, "commits", lambda parent: {
        "parent": "a" * 40, "change": "b" * 40, "dirty": True})
    monkeypatch.setattr(host_pairs, "run_once", run_once)
    monkeypatch.setattr(host_pairs, "count_run", count_run)
    ledger = tmp_path / "pairs.jsonl"
    host_pairs.main(["--workload", "circuit_fat", "--pairs", "2",
                     "--others", "2", "--seed", "7",
                     "--record", str(ledger)])
    # One large iteration per side and workload, on the first seed.
    assert sorted(counted) == sorted((name, 7) for name in names
                                     for _side in range(2))
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert [r["workload"] for r in records][0] == "circuit_fat"
    assert sorted(r["workload"] for r in records) == sorted(names)
    for record in records:
        assert record["counts"] == {
            side: {"handoffs_per_op": value, "workers_started": 2,
                   "collections": [113, 10, 0], "sizer_calls": calls,
                   "sizer_pages": 768, "loss_draws": 774,
                   "ledger_entries": entries}
            for side, value, calls, entries in (
                ("parent", 2.0, 768, 94640), ("change", 1.0, 24, 25696))}


def test_every_count_a_record_holds_is_printed_in_key_order():
    shown = host_pairs.show_counts(
        {"wire_frames": 208, "inflight_claims": 320, "wire_bytes": None,
         "collections": [14, 1, 0], "handoffs_per_op": 0.02})
    assert shown == ("collections 14/1/0, handoffs_per_op 0.0200, "
                     "inflight_claims 320, wire_bytes None, wire_frames 208")
    assert host_pairs.show_counts(None) == "unavailable"
