"""Doc names resolve: every backticked ``Class`` or ``Class.member`` in
README.md, DESIGN.md and ``docs/*.md`` names a class ``src/`` defines
and a member it has (``benchmarks/check_docs.py``'s name pass, which
CI's docs job runs too)."""

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
        "`Transport.hops` (SCALARS), `ClusterSpec.control` (a dataclass\n"
        "field), `NetworkStats.codec_cycles` (forwarded by __getattr__),\n"
        "`NetworkLossError.args` (a builtin base), `Controller(...)`.\n"
        "`CostModel.prefetch_depth`, `NetworkStats.window()`,\n"
        "`GoneWindow.table()`, `Trace.decisions`.\n"
        "```\n`Trace.decisions` in a fenced block is code, not prose\n```\n")
    assert check_docs.stale_names([doc]) == [
        "guide.md:5: `CostModel.prefetch_depth`",
        "guide.md:5: `NetworkStats.window()`",
        "guide.md:6: `GoneWindow.table()`",
        "guide.md:6: `Trace.decisions`",
    ]
