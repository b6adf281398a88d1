"""Frozen symbolic images of machine state — the debugger's model layer.

Everything the inspector shows is read from an **image**: a deep,
non-invasive copy of the space tree (registers, traps, per-space page
tables with ``(serial, generation)`` content tags, refcounts and bytes,
dirty-ledger counters) plus everything the run has moved on the machine
itself.  Images copy raw page *bytes* instead of taking COW references
on purpose: an ``incref`` would pin frames and force extra
copy-on-write breaks in whatever runs next, perturbing the virtual-time
accounting — fatal inside ``goto``'s replay, where the captured state
must leave the remainder of the re-execution bit-identical to the
original run.

What an image holds is declared, not picked here.  The machine-level
half is :func:`repro.kernel.ledgers.whole_run` — *the image of a
machine is the hand-back of its whole run*: every ledger a sharded
worker would ship, as its delta from the origin mark, so the trace, the
link / node / pair rows, the transport scalars, the frame and uid
counters, the page cache, the console and the merge log are in it by
construction.  A :class:`SpaceImage` names its fields once
(:attr:`SpaceImage.FIELDS`), held by test to the ledgers' ``SPLICED``.
Slots, equality, :func:`first_difference` and ``image_digest`` all
derive from those two declarations, which is what makes an image
usable as the bit-identity oracle of the test suite.  Diffing two
images is page-granular and reuses the merge engine's trick:
``(serial, generation)`` tags prove identity without touching bytes (a
shared pinned frame can never mutate in place), and only
tag-mismatched pages pay a stacked ``(N, 4096)`` ndarray compare.
"""

import copy
from itertools import zip_longest

import numpy as np

from repro.cluster.network import link_key
from repro.kernel.ledgers import whole_run
from repro.mem.page import PAGE_SIZE

#: Pages per stacked ndarray compare (mirrors the merge engine's batch).
BATCH_PAGES = 4096


#: What :func:`first_difference` reports for the side that lacks a key
#: or an index.
_ABSENT = "<absent>"


def _parts(a, b):
    """``(key, part of a, part of b)`` of two containers of one kind, in
    a fixed order; None when they are leaves (or of different kinds)."""
    if type(a) is not type(b):
        return None
    if isinstance(a, dict):
        keys = a.keys() | b.keys()
        try:
            keys = sorted(keys)
        except TypeError:       # link endpoints mix node ints and names
            keys = sorted(keys, key=repr)
        return [(key, a.get(key, _ABSENT), b.get(key, _ABSENT))
                for key in keys]
    if isinstance(a, (list, tuple)):
        return [(i, x, y) for i, (x, y) in
                enumerate(zip_longest(a, b, fillvalue=_ABSENT))]
    if getattr(type(a), "__slots__", None):
        return [(slot, getattr(a, slot), getattr(b, slot))
                for slot in type(a).__slots__]
    return None


def first_difference(a, b, name=""):
    """Where two images (or any two values built of dicts, sequences
    and slotted objects) first differ: ``(dotted name, value in a,
    value in b)``, or None when they are equal.  Dicts are walked in
    key order and slotted objects in slot order, so the answer is the
    same on every run."""
    parts = _parts(a, b)
    if parts is None:
        return None if a == b else (name, a, b)
    for key, x, y in parts:
        if isinstance(key, str):
            sub = f"{name}.{key}" if name else key
        else:
            sub = f"{name}[{key!r}]"
        found = first_difference(x, y, sub)
        if found is not None:
            return found
    return None


class _Frozen:
    """A frozen value is its ``__slots__`` and nothing else: two are
    equal when :func:`first_difference` finds nothing."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return first_difference(self, other) is None


class PageImage(_Frozen):
    """One captured page: content tag, permission, refcount, raw bytes."""

    __slots__ = ("tag", "perm", "refs", "data")

    def __init__(self, tag, perm, refs, data):
        self.tag = tag
        self.perm = perm
        self.refs = refs
        self.data = data

    def __repr__(self):
        return f"<PageImage tag={self.tag} perm={self.perm:#o}>"


def _freeze_pages(space):
    aspace = space.addrspace
    pages = {}
    for vpn in aspace.mapped_vpns():
        page = aspace.frame(vpn)
        pages[vpn] = PageImage(page.tag(), aspace.perm(vpn), page.refs,
                               bytes(page.data))
    return pages


def _freeze_snapshot(space):
    """vpn -> the content tag the Snap pinned there (None: no Snap)."""
    if space.snapshot is None:
        return None
    return {vpn: frame.tag() for vpn, frame in space.snapshot._frames.items()}


class SpaceImage(_Frozen):
    """Deep frozen copy of one space (and, recursively, its children)."""

    #: ``Space`` attributes an image holds as they are (a shallow copy).
    COPIED = ("uid", "home_node", "cur_node", "state", "trap", "trap_info",
              "regs", "insn_limit", "visit_tokens", "started")
    #: Image field -> (the ``Space`` attribute it freezes, how).
    DERIVED = {
        "path": ("slot", lambda space: tuple(space.slot_path())),
        "pages": ("addrspace", _freeze_pages),
        "dirty_page_count": (
            "addrspace", lambda space: space.addrspace.dirty_page_count()),
        "mem_counters": (
            "addrspace", lambda space: space.addrspace.counters.snapshot()),
        "snapshot": ("snapshot", _freeze_snapshot),
        "children": ("children", lambda space: {
            num: SpaceImage(space.children[num])
            for num in sorted(space.children)}),
    }
    #: Attributes a run may change (the ledgers' ``SPLICED``) that no
    #: field freezes, and why.
    EXCUSED = {
        "killed": "teardown flag: set only on a space being destroyed, "
                  "which has left the tree an image walks",
    }
    #: Everything an image of a space is.
    FIELDS = COPIED + tuple(DERIVED)
    __slots__ = FIELDS

    def __init__(self, space):
        for name in self.COPIED:
            setattr(self, name, copy.copy(getattr(space, name)))
        for name, (_attr, freeze) in self.DERIVED.items():
            setattr(self, name, freeze(space))

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

    def __repr__(self):
        return (f"<SpaceImage {self.uid} {self.state.value} "
                f"trap={self.trap.name} pages={len(self.pages)} "
                f"children={len(self.children)}>")


class MachineImage(_Frozen):
    """Frozen copy of a whole machine: the space tree, and everything
    its run has moved outside it (``run[owner][ledger key]``)."""

    __slots__ = ("root", "run")

    def __init__(self, machine):
        self.root = SpaceImage(machine.root)
        self.run = whole_run(machine)

    console = property(lambda self: bytes(self.run["machine"]["console_out"]))
    debug = property(lambda self: self.run["machine"]["debug_lines"])

    @property
    def links(self):
        """link -> what it has carried, in the network tables' order."""
        rows = self.run["transport"]["links"]
        return {link: rows[link] for link in sorted(rows, key=link_key)}

    def spaces(self):
        """All space images, depth-first from the root."""
        return list(self.root.walk())

    def find(self, uid):
        return self.root.find(uid)

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
