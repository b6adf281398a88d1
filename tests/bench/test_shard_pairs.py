"""Smoke test of ``benchmarks/shard_pairs.py`` on the smallest md5 tree,
demand-paged: a cell alternates serial and sharded runs of one
``run_cluster`` call, both sides compute the same run, and the record
carries the counts the shard coordinator reports.  Without ``--record``
the script asks git nothing, so it also runs in an unpacked archive."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.bench import cluster_workloads as cw

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "benchmarks"))
import shard_pairs  # noqa: E402

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="sharding requires os.fork")


def test_a_cell_pairs_serial_and_sharded_runs_of_one_call():
    record = shard_pairs.pair_cell(cw.md5_tree_main, 2, None, "demand",
                                   pairs=2, nnodes=4)
    assert len(record["serial_s"]) == len(record["sharded_s"]) == 2
    assert record["speedup_vs_serial"] > 0
    assert record["forked"] == record["adopted"] > 0
    assert record["fallbacks"] == 0
    assert (record["nnodes"], record["workers"]) == (4, shard_pairs.WORKERS)
    assert record["ship_mode"] == "demand"
    assert multiprocessing.active_children() == []


def test_main_without_record_starts_no_git(tmp_path, monkeypatch, capsys):
    # A non-git directory, as an unpacked archive of a revision is: the
    # cells still run and print, and no subprocess is started.
    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"started a subprocess: {args!r}")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(shard_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(shard_pairs, "CELLS", {
        "md5_tree(2) demand": (cw.md5_tree_main, 2, None, "demand")})
    monkeypatch.setattr(sys, "argv", ["shard_pairs.py", "--pairs", "1"])
    monkeypatch.chdir(tmp_path)
    shard_pairs.main()
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("md5_tree(2) demand") and "fallbacks 0" in line
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
