"""Tests for the time-travel debugger (``repro.debug``).

The load-bearing claims:

* ``goto N`` recovers the machine state at cycle N **bit-identically**:
  deterministic across invocations, identical whether the original run
  was serial or sharded (the replay is always serial, so every sharded
  ``goto`` doubles as an oracle of the shard path).
* Checkpoint diffs match ground truth computed two independent ways: a
  pure-Python bytewise compare of the frozen images, and the write list
  of a seeded randomized workload.
* Trapped-run summaries are byte-identical across same-seed reruns.
"""

import os
import random

import pytest

from repro import ClusterSpec, Machine
from repro.common.errors import DebugApiError
from repro.debug import Inspector
from repro.debug import render
from repro.debug.model import ADDED, CHANGED, RETAGGED, SpaceImage
from repro.debug.scenarios import (INJECT_AT_EPOCH, ft_main, fault_tolerance,
                                   retx_main, retx_trap)
from repro.runtime.checkpoint import (FREEZER_SLOT, Checkpointer,
                                      find_freezers, frozen_image)
from repro.timing.schedule import schedule


@pytest.fixture(scope="module")
def ft():
    insp = Inspector.from_recipe(fault_tolerance)
    yield insp
    insp.machine.close()


@pytest.fixture(scope="module")
def retx():
    insp = Inspector.from_recipe(retx_trap)
    yield insp
    insp.machine.close()


# -- whole-run queries ------------------------------------------------------


def test_summary_and_tree_views(ft):
    summary = render.format_summary(ft)
    assert any("result=204 expected=204" in line for line in summary)
    tree = render.format_tree(ft.image, pages=True)
    assert any("tag=" in line for line in tree)
    # Every space the machine holds appears in the tree view.
    for image in ft.image.spaces():
        assert any(image.uid in line for line in tree)


def test_traps_located_on_schedule(ft, retx):
    (crash,) = ft.traps()
    assert crash.label == "exc"
    # The crashed space was destroyed by the rollback, so the final
    # image carries no trap_info for it — recovering that is exactly
    # what goto is for (test_goto_recovers_trapped_state).
    assert crash.trap_info == ""
    # The faulting stop sits at its post-trap segment's scheduled
    # finish, which is also where the crash epoch's work segment ends.
    assert crash.cycle == ft.timeline.finish[crash.seg_id]

    (lost,) = retx.traps()
    assert "retransmissions dropped" in lost.trap_info
    assert retx.image.root.trap.is_fault()


def test_backtrace_chains_cross_space_arrivals(ft):
    (crash,) = ft.traps()
    frames = ft.backtrace(crash.uid, limit=4)
    assert [f.seg_id for f in frames] == sorted(
        (f.seg_id for f in frames), reverse=True)
    # The crashed space was resumed by its supervisor: at least one
    # frame carries a cross-uid in-edge from the root's context.
    root_uid = ft.image.root.uid
    assert any(src == root_uid
               for f in frames for src, _seg, _kind in f.in_edges)
    with pytest.raises(DebugApiError):
        ft.backtrace("no-such-uid")


def test_checkpoints_enumerated_in_save_order(ft):
    ((owner_uid, _freezer_uid, tags),) = ft.checkpoints()
    assert owner_uid == ft.image.root.uid
    assert tags == [f"epoch-{i}" for i in range(len(tags))]
    assert len(tags) >= INJECT_AT_EPOCH


def test_retx_link_ledgers_record_the_drops(retx):
    # Every message of the doomed migration was dropped, so the trace
    # records no transfers — the evidence lives in the link ledgers.
    ledgers = retx.link_ledgers()
    assert any(stats["dropped_msgs"] for stats in ledgers.values())
    assert any(stats["retx_msgs"] for stats in ledgers.values())
    assert retx.links_at(0)["in_flight"] == []


def test_links_at_reconstructs_wire_state():
    # A lossless 2-node run of the same workload: the migration
    # succeeds and its transfers appear on the reconstructed wire.
    machine = Machine(nnodes=2)
    machine.run(retx_main)
    insp = Inspector(machine)
    try:
        timeline = insp.timeline
        assert timeline.transfers
        first = min(t.start for t in timeline.transfers)
        probe = min(t for t in (tr.end - 1 for tr in timeline.transfers)
                    if t >= first)
        state = insp.links_at(probe)
        assert state["in_flight"]
        assert state["kinds_started"]
        assert sum(state["link_busy"].values()) > 0
        # At the makespan nothing is left on the wire and occupancy
        # matches the final ledger of serialization time.
        assert insp.links_at(timeline.makespan)["in_flight"] == []
    finally:
        machine.close()


# -- goto: the time-travel contract -----------------------------------------


def test_goto_recovers_trapped_state(ft):
    (crash,) = ft.traps()
    result = ft.goto(crash.cycle)
    (trapped,) = result.trapped()
    assert "corrupted input block" in trapped.trap_info
    assert trapped.uid == crash.uid
    # At the crash instant the rollback has not happened: the freezer
    # directory holds exactly the epochs saved before the injection.
    freezer = result.image.root.children[FREEZER_SLOT]
    assert sorted(freezer.regs["r7"]) == [
        f"epoch-{i}" for i in range(INJECT_AT_EPOCH)]
    # The final state has recovered — the trap is gone from it.
    assert not [img for img in ft.image.spaces() if img.trap.is_fault()]


def test_goto_is_deterministic(ft):
    (crash,) = ft.traps()
    first = ft.goto(crash.cycle)
    second = ft.goto(crash.cycle)
    assert first.segments == second.segments
    assert first.image == second.image


def test_goto_mid_run_precedes_later_epochs(ft):
    # Early in the run only the first epochs exist anywhere: pick the
    # finish of an early segment and check the freezer's directory.
    early = sorted(ft.timeline.finish.values())[4]
    result = ft.goto(early)
    freezer = result.image.root.children[FREEZER_SLOT]
    assert len(freezer.regs["r7"]) < INJECT_AT_EPOCH
    assert len(result.segments) < len(ft.trace.segments)


def test_goto_rejects_pre_history_cycles(ft):
    with pytest.raises(DebugApiError):
        ft.goto(-1)


def test_goto_without_recipe_is_an_error(ft):
    bare = Inspector(ft.machine, result=ft.result)
    with pytest.raises(DebugApiError):
        bare.goto(0)


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="sharding requires os.fork")
def test_goto_from_sharded_original(ft):
    """A sharded original run + serial goto replay: compare_traces
    inside goto() asserts serial-vs-sharded bit-identity, and the
    recovered image must equal the serial run's."""

    def sharded(prepare):
        machine = Machine(spec=ClusterSpec(shard_workers=2))
        prepare(machine)
        result = machine.run(ft_main)
        return machine, result

    insp = Inspector.from_recipe(sharded)
    try:
        (crash,) = insp.traps()
        result = insp.goto(crash.cycle)
        baseline = ft.goto(crash.cycle)
        assert result.segments == baseline.segments
        assert result.image == baseline.image
    finally:
        insp.machine.close()


# -- timeline vs the schedule ------------------------------------------------
# (Timeline == the list oracle, transfer by transfer, is pinned on both
# scenarios by tests/timing/test_event_core.py::test_timeline_matches_oracle.)


def test_timeline_is_a_view_over_the_inspectors_schedule(ft):
    # One scheduling pass per inspector: the timeline holds the very
    # start/finish mappings of ``insp.sched``, not a second replay.
    assert ft.timeline.start is ft.sched.start
    assert ft.timeline.finish is ft.sched.finish
    assert ft.timeline.makespan == ft.sched.makespan
    assert len(ft.timeline.transfers) == len(ft.trace.transfers)


def test_timeline_link_busy_matches_schedule(retx):
    sched = schedule(retx.trace, ncpus=retx.ncpus)
    busy_at_end = retx.timeline.link_busy_until(retx.timeline.makespan)
    assert busy_at_end == sched.link_busy


# -- checkpoint diff vs ground truth ----------------------------------------

DIFF_BASE = 0x30_0000
DIFF_PAGES = 12
DIFF_SEED = 1234


def _oracle_writes():
    """Seeded write plan shared by the guest and the test oracle."""
    rng = random.Random(DIFF_SEED)
    writes = []
    for i in range(DIFF_PAGES):
        roll = rng.random()
        if roll < 0.4:
            off = rng.randrange(0, 4096 - 64)
            data = bytes(rng.randrange(256) for _ in range(64))
            writes.append((i, off, data))
        elif roll < 0.55:
            # Rewrite with identical bytes: breaks COW (fresh frame,
            # new tag) without changing content -> RETAGGED.
            writes.append((i, 0, bytes([i % 251]) * 64))
    return writes


def _diff_child(g):
    for i in range(DIFF_PAGES):
        g.write(DIFF_BASE + i * 0x1000, bytes([i % 251]) * 4096)
    g.ret(status=1)
    for i, off, data in _oracle_writes():
        g.write(DIFF_BASE + i * 0x1000 + off, data)
    g.ret(status=0)


def _diff_main(g):
    ckpt = Checkpointer(g)
    g.put(1, regs={"entry": _diff_child}, start=True)
    g.get(1)
    ckpt.save(1, "before")
    g.put(1, start=True)
    g.get(1)
    ckpt.save(1, "after")
    return 0


@pytest.fixture(scope="module")
def diff_run():
    machine = Machine()
    machine.run(_diff_main)
    insp = Inspector(machine)
    yield insp
    machine.close()


def test_diff_matches_write_plan_oracle(diff_run):
    # Checkpoints freeze the *child* subtree, so its page deltas sit at
    # the top level of the diff.
    diff = diff_run.diff("before", "after")
    by_vpn = {d.vpn: d for d in diff.pages}
    base_vpn = DIFF_BASE // 0x1000
    expected = {}
    for i, off, data in _oracle_writes():
        changed = sum(1 for byte in data if byte != i % 251)
        expected[base_vpn + i] = changed
    for vpn, changed in expected.items():
        delta = by_vpn.pop(vpn)
        if changed:
            assert delta.status == CHANGED
            assert delta.bytes_changed == changed
        else:
            assert delta.status == RETAGGED
    # No page outside the write plan may appear as a content change
    # (untouched pages share frames -> tag-equal -> skipped unread).
    assert all(d.status != CHANGED for d in by_vpn.values())


def test_diff_matches_naive_bytewise_compare(diff_run):
    """The batched ndarray diff agrees with a pure-Python compare of
    the raw frozen images — the second, implementation-independent
    oracle."""
    (_, freezer), = find_freezers(diff_run.machine.root)
    child_a = SpaceImage(frozen_image(freezer, "before"))
    child_b = SpaceImage(frozen_image(freezer, "after"))
    diff = diff_run.diff("before", "after")
    reported = {d.vpn: d for d in diff.pages}
    for vpn in set(child_a.pages) | set(child_b.pages):
        a = child_a.pages.get(vpn)
        b = child_b.pages.get(vpn)
        if a is None or b is None:
            assert reported[vpn].status in (ADDED, "removed")
            continue
        naive = sum(1 for x, y in zip(a.data, b.data) if x != y)
        if naive:
            assert reported[vpn].status == CHANGED
            assert reported[vpn].bytes_changed == naive
        elif vpn in reported:
            assert reported[vpn].status == RETAGGED


# -- rendering determinism --------------------------------------------------


def test_trapped_summary_bit_identical_across_reruns(retx):
    again = Inspector.from_recipe(retx_trap)
    try:
        assert render.format_summary(again) == render.format_summary(retx)
        assert render.format_links(again) == render.format_links(retx)
        assert (render.format_tree(again.image, pages=True)
                == render.format_tree(retx.image, pages=True))
    finally:
        again.machine.close()


#: The seven outputs CI's "Capture inspector sample output" step
#: archives (argv -> file under tests/debug/golden/, captured before
#: Timeline became a view over the schedule).  Byte equality, both
#: scenarios: a refactor of the timing layer must not move one cycle.
GOLDEN = [
    (["summary"], "debug_summary.txt"),
    (["tree", "--pages"], "debug_tree.txt"),
    (["bt"], "debug_bt.txt"),
    (["diff", "epoch-4", "epoch-5"], "debug_diff.txt"),
    (["goto", "345806", "--pages"], "debug_goto.txt"),
    (["--scenario", "retx", "summary"], "debug_retx_summary.txt"),
    (["--scenario", "retx", "links"], "debug_retx_links.txt"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN,
                         ids=[name for _, name in GOLDEN])
def test_cli_output_matches_archived_golden(argv, golden, capsys):
    from repro.debug.__main__ import main
    assert main(argv) == 0
    path = os.path.join(os.path.dirname(__file__), "golden", golden)
    with open(path, encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def test_cli_smoke(capsys):
    from repro.debug.__main__ import main
    assert main(["--scenario", "retx", "summary"]) == 0
    first = capsys.readouterr().out
    assert main(["--scenario", "retx", "summary"]) == 0
    assert capsys.readouterr().out == first
    assert main(["--scenario", "retx", "diff", "nope", "nope2"]) == 1
    assert "no freezer" in capsys.readouterr().err
