"""Smoke test of ``benchmarks/shard_pairs.py`` on the smallest md5 tree,
demand-paged: a cell alternates serial and sharded runs of one
``run_cluster`` call, both sides compute the same run, and the record
carries the counts the shard coordinator reports."""

import multiprocessing
import os
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
