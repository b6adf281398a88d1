"""Doc names resolve: every backticked ``Class`` or ``Class.member`` in
README.md, DESIGN.md and ``docs/*.md`` names a class ``src/`` defines
and a member it has, and every backticked ``path.py`` or
``path.py::name`` names a repo file and a top-level name in it
(``benchmarks/check_docs.py``'s name and path passes, which CI's docs
job runs too)."""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))
import check_docs  # noqa: E402


def test_every_backticked_class_name_resolves():
    assert check_docs.stale_names() == []


def test_each_resolution_path_and_a_stale_name(tmp_path):
    doc = tmp_path / "guide.md"
    doc.write_text(
        "`LinkStats.delta_since` (a base), `NodeStats.pulled` (FIELDS),\n"
        "`Transport.hops` (SCALARS), `ClusterSpec.prefetch_depth` (a\n"
        "dataclass field), `NetworkStats.codec_cycles` (forwarded by\n"
        "__getattr__), `NetworkLossError.args` (a builtin base),\n"
        "`Controller(...)`.  `CostModel.prefetch_depth`,\n"
        "`NetworkStats.window()`, `ClusterSpec.control`,\n"
        "`GoneWindow.table()`, `Trace.decisions`.\n"
        "```\n`Trace.decisions` in a fenced block is code, not prose\n```\n")
    assert check_docs.stale_names([doc]) == [
        "guide.md:5: `CostModel.prefetch_depth`",
        "guide.md:6: `NetworkStats.window()`",
        "guide.md:6: `ClusterSpec.control`",
        "guide.md:7: `GoneWindow.table()`",
        "guide.md:7: `Trace.decisions`",
    ]


def test_every_backticked_module_path_resolves():
    assert check_docs.stale_paths() == []


def test_each_path_form_and_a_stale_path(tmp_path):
    doc = tmp_path / "guide.md"
    doc.write_text(
        "`benchmarks/check_docs.py` (repo-relative), `kernel/shard.py`\n"
        "(under src/repro), `repro/cluster/spec.py` (under src),\n"
        "`bench_ablation_adaptive.py` (a suffix), a def\n"
        "`kernel/shard.py::fork_refusal`, an assignment\n"
        "`cluster/placement.py::POLICIES`, a member\n"
        "`cluster/transport.py::Transport.migrate`, a test\n"
        "`tests/cluster/test_spec.py::test_spec_is_frozen`.  Not paths:\n"
        "`python benchmarks/check_docs.py`, `tests/mem/test_merge*.py`.\n"
        "`cluster/gone.py`, `cluster/control.py::resolve_control`,\n"
        "`topology.py::Topology.route_latency`, `kernel/shard.py::os`.\n"
        "```\n`cluster/gone.py` in a fenced block is code, not prose\n```\n")
    assert check_docs.stale_paths([doc]) == [
        "guide.md:9: `cluster/gone.py`",
        "guide.md:9: `cluster/control.py::resolve_control`",
        "guide.md:10: `topology.py::Topology.route_latency`",
        "guide.md:10: `kernel/shard.py::os`",
    ]
