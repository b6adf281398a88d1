"""Frozen symbolic images of machine state — the debugger's model layer.

Everything the inspector shows is read from an **image**: a deep,
non-invasive copy of the space tree (registers, traps, per-space page
tables with ``(serial, generation)`` content tags, dirty-ledger
counters) plus the machine-level surfaces (console, per-link transport
ledgers).  Images copy raw page *bytes* instead of taking COW
references on purpose: an ``incref`` would pin frames and force extra
copy-on-write breaks in whatever runs next, perturbing the virtual-time
accounting — fatal inside ``goto``'s replay, where the captured state
must leave the remainder of the re-execution bit-identical to the
original run.

Image equality is structural and total (registers, traps, page bytes,
link ledgers), which is what makes an image usable as a bit-identity
oracle in tests.  Diffing two images is page-granular and reuses the
merge engine's trick: ``(serial, generation)`` tags prove identity
without touching bytes (a shared pinned frame can never mutate in
place), and only tag-mismatched pages pay a stacked ``(N, 4096)``
ndarray compare.
"""

import numpy as np

from repro.cluster.network import link_key
from repro.mem.page import PAGE_SIZE

#: Pages per stacked ndarray compare (mirrors the merge engine's batch).
BATCH_PAGES = 4096

_ZEROS = np.zeros(PAGE_SIZE, dtype=np.uint8)


class PageImage:
    """One captured page: content tag, permission, raw bytes."""

    __slots__ = ("tag", "perm", "data")

    def __init__(self, tag, perm, data):
        self.tag = tag
        self.perm = perm
        self.data = data

    def __eq__(self, other):
        return (isinstance(other, PageImage) and self.tag == other.tag
                and self.perm == other.perm and self.data == other.data)

    def __repr__(self):
        return f"<PageImage tag={self.tag} perm={self.perm:#o}>"


class SpaceImage:
    """Deep frozen copy of one space (and, recursively, its children)."""

    __slots__ = ("uid", "path", "state", "trap", "trap_info", "regs",
                 "home_node", "cur_node", "insn_limit", "pages",
                 "dirty_page_count", "snapshot_vpns",
                 "children")

    def __init__(self, space):
        self.uid = space.uid
        self.path = tuple(space.slot_path())
        self.state = space.state.value
        self.trap = space.trap
        self.trap_info = space.trap_info
        self.regs = dict(space.regs)
        self.home_node = space.home_node
        self.cur_node = space.cur_node
        self.insn_limit = space.insn_limit
        aspace = space.addrspace
        self.pages = {}
        for vpn in aspace.mapped_vpns():
            page = aspace.frame(vpn)
            self.pages[vpn] = PageImage(
                page.tag(), aspace.perm(vpn), bytes(page.data))
        self.dirty_page_count = aspace.dirty_page_count()
        snapshot = space.snapshot
        self.snapshot_vpns = (
            tuple(sorted(snapshot._frames)) if snapshot is not None else None)
        self.children = {
            num: SpaceImage(space.children[num])
            for num in sorted(space.children)
        }

    # -- traversal ---------------------------------------------------------

    def walk(self):
        """This image and all descendants, depth-first (space order)."""
        yield self
        for num in sorted(self.children):
            yield from self.children[num].walk()

    def find(self, uid):
        """The descendant image with the given uid, or None."""
        for image in self.walk():
            if image.uid == uid:
                return image
        return None

    @property
    def total_pages(self):
        return len(self.pages)

    # -- equality (the bit-identity oracle) --------------------------------

    def __eq__(self, other):
        if not isinstance(other, SpaceImage):
            return NotImplemented
        return (self.uid == other.uid and self.path == other.path
                and self.state == other.state and self.trap is other.trap
                and self.trap_info == other.trap_info
                and self.regs == other.regs
                and self.home_node == other.home_node
                and self.cur_node == other.cur_node
                and self.pages == other.pages
                and self.dirty_page_count == other.dirty_page_count
                and self.snapshot_vpns == other.snapshot_vpns
                and self.children == other.children)

    def __repr__(self):
        return (f"<SpaceImage {self.uid} {self.state} trap={self.trap.name} "
                f"pages={len(self.pages)} children={len(self.children)}>")


class MachineImage:
    """Frozen copy of a whole machine: space tree + devices + fabric."""

    __slots__ = ("root", "console", "debug", "links", "node_map",
                 "pages_fetched", "inflight")

    def __init__(self, machine):
        self.root = SpaceImage(machine.root)
        self.console = bytes(machine.console_output)
        self.debug = tuple(machine.debug_lines)
        transport = machine.transport
        self.links = {
            link: transport.links[link].as_dict()
            for link in sorted(transport.links, key=link_key)
        }
        self.node_map = dict(machine.node_map)
        self.pages_fetched = machine.pages_fetched
        #: node -> prefetch exchanges still in flight at capture.
        self.inflight = {
            node: len(transport.inflight[node])
            for node in sorted(transport.inflight)
            if transport.inflight[node]
        }

    def spaces(self):
        """All space images, depth-first from the root."""
        return list(self.root.walk())

    def find(self, uid):
        return self.root.find(uid)

    def __eq__(self, other):
        if not isinstance(other, MachineImage):
            return NotImplemented
        return (self.root == other.root and self.console == other.console
                and self.debug == other.debug and self.links == other.links
                and self.node_map == other.node_map
                and self.pages_fetched == other.pages_fetched
                and self.inflight == other.inflight)

    def __repr__(self):
        return (f"<MachineImage spaces={len(self.spaces())} "
                f"links={len(self.links)}>")


def freeze_machine(machine):
    """Capture a :class:`MachineImage` of ``machine`` right now.

    Safe mid-run from a trace ``on_close`` observer: the engine's baton
    protocol guarantees exactly one runnable guest, so the tree is
    quiescent while the observer holds the baton.
    """
    if machine.root is None:
        raise ValueError("machine has not run; nothing to freeze")
    return MachineImage(machine)


# -- page-granular diff ----------------------------------------------------

#: Diff statuses, in display order.
ADDED = "added"
REMOVED = "removed"
CHANGED = "changed"
RETAGGED = "retagged"       # fresh frame, byte-identical content


class PageDelta:
    """One page's difference between two images."""

    __slots__ = ("vpn", "status", "bytes_changed")

    def __init__(self, vpn, status, bytes_changed=0):
        self.vpn = vpn
        self.status = status
        self.bytes_changed = bytes_changed

    def __repr__(self):
        extra = (f" bytes={self.bytes_changed}"
                 if self.status == CHANGED else "")
        return f"<PageDelta vpn={self.vpn:#x} {self.status}{extra}>"


def diff_pages(pages_a, pages_b):
    """Page-granular diff of two ``vpn -> PageImage`` tables.

    Returns ``PageDelta`` entries sorted by vpn.  Tag-equal pages are
    skipped without reading bytes — a ``(serial, generation)`` pair
    names immutable content, the same soundness argument the merge
    engine and the cluster page cache rest on.  Tag-mismatched pairs are
    byte-compared in stacked ``(N, 4096)`` batches; byte-identical pairs
    surface as :data:`RETAGGED` (a rewrite that restored the old
    content — invisible to semantics, visible to provenance).
    """
    deltas = []
    pending = []            # (vpn, bytes_a, bytes_b) awaiting byte compare
    for vpn in sorted(set(pages_a) | set(pages_b)):
        a, b = pages_a.get(vpn), pages_b.get(vpn)
        if a is None:
            deltas.append(PageDelta(vpn, ADDED, PAGE_SIZE))
        elif b is None:
            deltas.append(PageDelta(vpn, REMOVED, PAGE_SIZE))
        elif a.tag != b.tag:
            pending.append((vpn, a.data, b.data))
    for base in range(0, len(pending), BATCH_PAGES):
        chunk = pending[base:base + BATCH_PAGES]
        a_mat = np.stack([np.frombuffer(item[1], dtype=np.uint8)
                          for item in chunk])
        b_mat = np.stack([np.frombuffer(item[2], dtype=np.uint8)
                          for item in chunk])
        diff = a_mat != b_mat
        counts = diff.sum(axis=1)
        for row in np.flatnonzero(counts):
            deltas.append(PageDelta(chunk[row][0], CHANGED,
                                    int(counts[row])))
        for row in np.flatnonzero(counts == 0):
            deltas.append(PageDelta(chunk[row][0], RETAGGED, 0))
    deltas.sort(key=lambda d: d.vpn)
    return deltas


class SpaceDiff:
    """Difference between two space images (one tree level).

    ``pages`` holds the :func:`diff_pages` result; ``regs`` the register
    names whose values differ; ``children`` recurses (keyed by child
    number, present when either side has the child).
    """

    __slots__ = ("a", "b", "pages", "regs", "state_changed", "children")

    def __init__(self, image_a, image_b):
        self.a = image_a
        self.b = image_b
        self.pages = diff_pages(image_a.pages, image_b.pages)
        self.regs = sorted(
            name for name in set(image_a.regs) | set(image_b.regs)
            if image_a.regs.get(name) != image_b.regs.get(name))
        self.state_changed = (image_a.state != image_b.state
                              or image_a.trap is not image_b.trap)
        self.children = {}
        for num in sorted(set(image_a.children) | set(image_b.children)):
            child_a = image_a.children.get(num)
            child_b = image_b.children.get(num)
            if child_a is None or child_b is None:
                self.children[num] = (child_a, child_b)   # added/removed
            else:
                child = SpaceDiff(child_a, child_b)
                if not child.identical:
                    self.children[num] = child

    @property
    def identical(self):
        return (not self.pages and not self.regs and not self.state_changed
                and not self.children)

    def __repr__(self):
        return (f"<SpaceDiff {self.a.uid}/{self.b.uid} "
                f"pages={len(self.pages)} regs={self.regs} "
                f"children={sorted(self.children)}>")


# -- trace comparison (the replay-exactness gate) --------------------------

def compare_traces(a, b):
    """First divergence between two traces, or None if bit-identical.

    Compares segment tuples ``(uid, node, cycles, label)`` by id, then
    edges, transfers, and decision records.  ``goto`` runs this over
    (original, replay) and refuses to present state from a divergent
    replay — determinism is the debugger's correctness argument, so a
    divergence is an error, not a warning.
    """
    if len(a.segments) != len(b.segments):
        return (f"segment count differs: {len(a.segments)} != "
                f"{len(b.segments)}")
    for seg_a, seg_b in zip(a.segments, b.segments):
        if (seg_a.uid, seg_a.node, seg_a.cycles, seg_a.label) != (
                seg_b.uid, seg_b.node, seg_b.cycles, seg_b.label):
            return (f"segment #{seg_a.id} differs: "
                    f"{seg_a!r} != {seg_b!r}")
    if a.edges != b.edges:
        for i, (ea, eb) in enumerate(zip(a.edges, b.edges)):
            if ea != eb:
                return f"edge #{i} differs: {ea} != {eb}"
        return f"edge count differs: {len(a.edges)} != {len(b.edges)}"
    if a.transfers != b.transfers:
        for i, (ta, tb) in enumerate(zip(a.transfers, b.transfers)):
            if ta != tb:
                return f"transfer #{i} differs: {ta} != {tb}"
        return (f"transfer count differs: {len(a.transfers)} != "
                f"{len(b.transfers)}")
    if a.decisions != b.decisions:
        return "control-plane decision records differ"
    return None
