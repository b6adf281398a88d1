"""Doc names resolve: every backticked ``Class`` or ``Class.member`` in
README.md, DESIGN.md and ``docs/*.md`` names a class ``src/`` defines
and a member it has (``machine.member`` and ``transport.member`` a
member of ``Machine`` and ``Transport``), and every backticked
``path.py`` or ``path.py::name`` names a repo file and a top-level name
in it; every citation of a DESIGN.md section names one, and a heading
or lead-in in it; and DESIGN.md keeps its shape
(``benchmarks/check_docs.py``'s name, path, section and shape passes,
which CI's docs job runs too).

The samples below spell the section sign ``\\u00a7`` so that this file's
own source cites no section."""

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


def test_an_instance_span_resolves_on_its_class(tmp_path):
    doc = tmp_path / "guide.md"
    doc.write_text(
        "`machine.shard.refused`, `transport.hops` (SCALARS),\n"
        "`machine.pages_fetched` (a property).  `machine.control`,\n"
        "`transport.window()`, `machine.prefetch_depth_for(node)`.  Not\n"
        "instances: `kernel.shard_self_s`, `trace.coverage`.\n")
    assert check_docs.stale_names([doc]) == [
        "guide.md:2: `machine.control`",
        "guide.md:3: `transport.window()`",
        "guide.md:3: `machine.prefetch_depth_for(node)`",
    ]


def test_every_backticked_module_path_resolves():
    assert check_docs.stale_paths() == []


def test_each_path_form_and_a_stale_path(tmp_path):
    doc = tmp_path / "guide.md"
    doc.write_text(
        "`benchmarks/check_docs.py` (repo-relative), `kernel/shard.py`\n"
        "(under src/repro), `repro/cluster/spec.py` (under src),\n"
        "`bench_ablation_prefetch.py` (a suffix), a def\n"
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


def test_every_design_section_citation_resolves():
    assert check_docs.stale_sections() == []


def test_each_citation_form_and_a_stale_section(tmp_path):
    design = tmp_path / "DESIGN.md"
    design.write_text(
        "# DESIGN\n\n## 1. First\n\n### A heading\n\n"
        "* **A bold lead-in that\n  wraps.**  Text.\n\n"
        "*An italic lead-in.*  Text, and *emphasis* mid-line.\n\n"
        "## 2. Second\n\nSee \u00a71 \"A heading\" and \u00a72 \"Gone\".\n")
    doc = tmp_path / "notes.py"
    doc.write_text(
        "# DESIGN \u00a71 \"A heading\", DESIGN.md \u00a71, \"A bold lead-in\n"
        "# that wraps\" (wrapped), DESIGN \u00a71, 'An italic' (quoted\n"
        "# once), paper \u00a73.2 and (\u00a76.3) (no DESIGN prefix), `DESIGN.md`\n"
        "# \u00a72 (wrapped, backticked).\n"
        "# DESIGN.md \u00a73, DESIGN \u00a71 \"emphasis\", DESIGN \u00a72 \"Second\".\n")
    assert len(check_docs.design_citations([doc], design)) == 9
    assert check_docs.stale_sections([doc], design) == [
        "notes.py:5: \u00a73",
        "notes.py:5: \u00a71 \"emphasis\"",
        "notes.py:5: \u00a72 \"Second\"",
        "DESIGN.md:14: \u00a72 \"Gone\"",
    ]


def test_design_md_keeps_its_shape():
    assert check_docs.design_shape() == []


def test_each_shape_rule_on_a_sample(tmp_path):
    design = tmp_path / "DESIGN.md"
    design.write_text("# DESIGN\n\nMeasured in PR 12 (ROADMAP 4).\n"
                      "A PR that means to move a number says why.\n")
    assert check_docs.design_shape(design, max_lines=4) == [
        "DESIGN.md:3: 'PR 12'",
        "DESIGN.md:3: 'ROADMAP'",
    ]
    assert check_docs.design_shape(design, max_lines=3)[-1] == \
        "DESIGN.md has 4 lines, over the ceiling of 3"
