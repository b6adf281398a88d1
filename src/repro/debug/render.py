"""Deterministic text rendering of inspector views.

Shared by the ``python -m repro.debug`` CLI and by examples that print
a post-mortem inline (``examples/fault_tolerance.py``).  Every renderer
is a pure function of its inputs with fully deterministic iteration
order, so same-seed reruns print byte-identical reports — asserted by
the inspector test suite, and the property that lets CI archive the
output as a comparable artifact.
"""

from repro.debug.model import CHANGED, RETAGGED
from repro.mem.page import PAGE_SIZE


def _fmt_regs(regs):
    """Registers worth showing: entry/args always, others when nonzero."""
    parts = []
    entry = regs.get("entry")
    if callable(entry):
        parts.append(f"entry={getattr(entry, '__name__', repr(entry))}")
    elif entry:
        parts.append(f"entry={entry!r}")
    args = regs.get("args")
    if args:
        parts.append(f"args={args!r}")
    for name in ("status", "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"):
        value = regs.get(name, 0)
        if value:
            parts.append(f"{name}={value!r}")
    return " ".join(parts)


def _fmt_path(path):
    return "/" + "/".join(f"{num:#x}" if num >= 0x100 else str(num)
                          for num in path) if path else "/"


def format_space(image, pages=False, indent=""):
    """One space image (and children) as an indented tree."""
    lines = []
    snap = (f" snap={len(image.snapshot)}p"
            if image.snapshot is not None else "")
    trap = f" trap={image.trap.name}" if image.trap.name != "NONE" else ""
    info = f" ({image.trap_info})" if image.trap_info else ""
    lines.append(
        f"{indent}{image.uid} {_fmt_path(image.path)} [{image.state.value}]"
        f"{trap}{info} node={image.cur_node}/{image.home_node} "
        f"pages={image.total_pages} dirty={image.dirty_page_count}{snap}")
    regs = _fmt_regs(image.regs)
    if regs:
        lines.append(f"{indent}  regs: {regs}")
    if pages:
        for vpn, page in sorted(image.pages.items()):
            serial, generation = page.tag
            lines.append(
                f"{indent}  page {vpn:#07x}: tag=({serial}, {generation}) "
                f"perm={page.perm:#o}")
    for num in sorted(image.children):
        lines.append(f"{indent}  child {num:#x}:" if num >= 0x100
                     else f"{indent}  child {num}:")
        lines.extend(format_space(image.children[num], pages=pages,
                                  indent=indent + "    "))
    return lines


def format_tree(machine_image, pages=False):
    return format_space(machine_image.root, pages=pages)


def format_summary(insp):
    """Whole-run overview: result, schedule, traps, checkpoints, wire."""
    image = insp.image
    root = image.root
    lines = []
    verdict = ("trapped" if root.trap.is_fault() else
               root.trap.name.lower())
    info = f" ({root.trap_info})" if root.trap_info else ""
    lines.append(f"run: {verdict} {root.trap.name}{info} "
                 f"status={root.regs.get('status')!r} "
                 f"r0={root.regs.get('r0')!r}")
    lines.append(
        f"schedule: makespan={insp.timeline.makespan} cycles on "
        f"{insp.ncpus} CPU(s)/node; {len(insp.trace.segments)} segments, "
        f"{len(image.spaces())} space(s)")
    traps = insp.traps()
    lines.append(f"traps: {len(traps)}")
    for event in traps:
        info = f"  {event.trap_info}" if event.trap_info else ""
        lines.append(f"  cycle {event.cycle:>12}  {event.uid:<4} "
                     f"{event.label:<10} seg=#{event.seg_id}{info}")
    checkpoints = insp.checkpoints()
    lines.append(f"checkpoints: {len(checkpoints)} freezer(s)")
    for owner_uid, freezer_uid, tags in checkpoints:
        lines.append(f"  {owner_uid} -> {freezer_uid}: "
                     f"{' '.join(tags) if tags else '(empty)'}")
    if image.links:
        lines.append(f"links: {len(image.links)}")
        for link, stats in image.links.items():
            retx = (f" retx={stats['retx_msgs']} "
                    f"dropped={stats['dropped_msgs']}"
                    if stats["retx_msgs"] or stats["dropped_msgs"] else "")
            lines.append(
                f"  {link}: {stats['messages']} msgs "
                f"{stats['bytes_sent']} B sent "
                f"{stats['pages']} pages{retx}")
    if image.console:
        lines.append("console:")
        for text in image.console.decode(errors="replace").splitlines():
            lines.append(f"  {text}")
    if image.debug:
        lines.append("debug log:")
        for text in image.debug:
            lines.append(f"  {text}")
    return lines


def format_backtrace(insp, uid, limit=16):
    lines = [f"backtrace of {uid} (newest first):"]
    for frame in insp.backtrace(uid, limit=limit):
        window = (f"[{frame.start}..{frame.finish}]"
                  if frame.start is not None else "[unscheduled]")
        label = frame.label or "run"
        lines.append(f"  #{frame.seg_id:<5} {label:<12} node={frame.node} "
                     f"cycles={frame.cycles:<10} {window}")
        for src_uid, src_seg, kind in frame.in_edges:
            via = f" via {kind}" if kind else ""
            lines.append(f"      <- {src_uid} #{src_seg}{via}")
    return lines


def format_links(insp, at=None):
    lines = []
    if at is None:
        lines.append("final link ledgers:")
        for link, stats in insp.link_ledgers().items():
            cls = insp.machine.topology.link_class(link).name
            lines.append(f"  {link} [{cls}]:")
            lines.append(
                f"    messages={stats['messages']} "
                f"sent={stats['bytes_sent']}B "
                f"received={stats['bytes_received']}B "
                f"pages={stats['pages']}")
            lines.append(
                f"    retx={stats['retx_msgs']} "
                f"dropped={stats['dropped_msgs']}")
            by_type = " ".join(f"{name}={count}" for name, count in
                               sorted(stats["by_type"].items()))
            if by_type:
                lines.append(f"    by type: {by_type}")
        return lines
    state = insp.links_at(at)
    lines.append(f"wire state at cycle {at}:")
    lines.append(f"  in flight: {len(state['in_flight'])} transfer(s)")
    for t in state["in_flight"]:
        phase = "serializing" if t.occupies_at(at) else "in transit"
        lines.append(
            f"    {t.link} seg#{t.src} -> seg#{t.dst} kind={t.kind} "
            f"[{t.start}..{t.end}..{t.arrival}) {phase}")
    lines.append("  link occupancy so far:")
    for link in sorted(state["link_busy"], key=repr):
        lines.append(f"    {link}: {state['link_busy'][link]} cycles")
    kinds = state["kinds_started"]
    if kinds:
        started = " ".join(f"{kind}={count}" for kind, count in
                           sorted(kinds.items(), key=lambda kv: str(kv[0])))
        lines.append(f"  transfers started: {started}")
    lines.append(f"  segments running: "
                 f"{' '.join(f'#{s}' for s in state['running']) or '(none)'}")
    return lines


def _diff_lines(diff, indent=""):
    lines = []
    label = f"{diff.a.uid} -> {diff.b.uid}"
    changed = sum(1 for d in diff.pages if d.status != RETAGGED)
    lines.append(f"{indent}{label}: {changed} page(s) differ")
    if diff.state_changed:
        lines.append(
            f"{indent}  state: {diff.a.state.value}/{diff.a.trap.name} -> "
            f"{diff.b.state.value}/{diff.b.trap.name}")
    for name in diff.regs:
        lines.append(f"{indent}  reg {name}: {diff.a.regs.get(name)!r} -> "
                     f"{diff.b.regs.get(name)!r}")
    for delta in diff.pages:
        detail = (f" ({delta.bytes_changed}/{PAGE_SIZE} bytes)"
                  if delta.status == CHANGED else "")
        lines.append(
            f"{indent}  page {delta.vpn:#07x}: {delta.status}{detail}")
    for num, child in sorted(diff.children.items()):
        slot = f"{num:#x}" if num >= 0x100 else str(num)
        if isinstance(child, tuple):
            side_a, side_b = child
            status = "added" if side_a is None else "removed"
            lines.append(f"{indent}  child {slot}: {status}")
        else:
            lines.append(f"{indent}  child {slot}:")
            lines.extend(_diff_lines(child, indent + "    "))
    return lines


def format_diff(diff, tag_a, tag_b):
    if diff.identical:
        return [f"checkpoints {tag_a!r} and {tag_b!r} are identical"]
    return [f"diff {tag_a!r} -> {tag_b!r}:"] + _diff_lines(diff, "  ")


def format_goto(result, pages=False):
    lines = [
        f"state at cycle {result.cycle} "
        f"({len(result.segments)} segment(s) complete; replay verified "
        f"bit-identical to the original trace):"
    ]
    lines.extend(format_space(result.image.root, pages=pages, indent="  "))
    trapped = result.trapped()
    if trapped:
        lines.append("trapped at this point:")
        for image in trapped:
            lines.append(f"  {image.uid}: {image.trap.name} "
                         f"{image.trap_info}")
    return lines
