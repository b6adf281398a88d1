"""Put/Get/Ret: the entire kernel API (paper §3.2, Tables 1 and 2).

Option arguments accepted by :meth:`Kernel.sys_put` / :meth:`Kernel.sys_get`:

===========  ====  ====  =====================================================
option        Put   Get   meaning
===========  ====  ====  =====================================================
``regs``      X     X    Put: dict of register updates for the child.
                         Get: pass ``regs=True`` to receive the child's
                         register file + trap status.
``copy``      X     X    ``(src, dst, size)`` or ``(addr, size)`` or a list
                         of either: copy memory to (Put) / from (Get) the
                         child, copy-on-write, page-aligned.
``zero``      X     X    ``(addr, size)`` or list: zero-fill a range
                         (in the child for Put, in the caller for Get).
``snap``      X          ``(addr, size)``: snapshot the child's memory as
                         the reference for later Merge.
``start``     X          Start (or resume) the child executing.
``limit``     X          Instruction limit for this start (None=unlimited).
``merge``           X    ``True`` (whole snapshot range) or ``(addr, size)``:
                         merge child's changes since its snapshot into the
                         caller; write/write conflicts raise
                         MergeConflictError in the caller.
``perm``      X     X    ``(addr, size, perm)``: set page permissions
                         (child range on Put, caller range on Get).
``tree``      X     X    ``(src_child, dst_child)``: copy a (grand)child
                         subtree between the caller's and the child's child
                         namespaces (down for Put, up for Get).
``grant_io``  X          Delegate I/O privilege to the child (paper §3.1:
                         "I/O privileges delegated by the root space").
===========  ====  ====  =====================================================

High bits of the child number select the node to interact on (§3.3):
use :func:`child_ref` to build cross-node child numbers.
"""

from repro.common.errors import BadChildError, KernelError, MergeConflictError
from repro.kernel.space import SpaceState
from repro.kernel.traps import Trap
from repro.mem.merge import MergeStats, merge_range
from repro.mem.page import PAGE_SHIFT
from repro.mem.snapshot import Snapshot

#: Bit position where the node-number field starts in a child number.
NODE_SHIFT = 16
#: Mask of the local child-number field.
LOCAL_MASK = (1 << NODE_SHIFT) - 1


def child_ref(local, node=None):
    """Build a child number addressing ``local`` on ``node``.

    ``node=None`` (or omitted) leaves the node field zero, which the
    kernel interprets as the calling space's *home* node — so programs
    that never pass a node keep their whole hierarchy on one node, as the
    paper specifies (§3.3).
    """
    if not 0 <= local <= LOCAL_MASK:
        raise ValueError(f"local child number {local} out of range")
    if node is None:
        return local
    return ((node + 1) << NODE_SHIFT) | local


def _normalize_ranges(spec, what):
    """Normalize copy/zero specs to a list of (src, dst, size) tuples."""
    if spec is None:
        return []
    if isinstance(spec, tuple):
        spec = [spec]
    out = []
    for item in spec:
        if len(item) == 2:
            addr, size = item
            out.append((addr, addr, size))
        elif len(item) == 3:
            out.append(tuple(item))
        else:
            raise KernelError(f"bad {what} spec {item!r}")
    return out


class Kernel:
    """Implements the three system calls over a machine's space hierarchy."""

    def __init__(self, machine):
        self.machine = machine

    # -- helpers ----------------------------------------------------------

    def kcharge(self, space, cycles):
        """Charge kernel work to ``space``'s open trace segment."""
        if cycles:
            self.machine.trace.charge(space.uid, cycles)

    def _decode_child(self, caller, childno):
        """Node selected by the child number's high bits (§3.3).

        The *full* child number — node field included — is the key in
        the parent's child namespace: child 1 on node 2 and child 1 on
        node 3 are distinct children.  Node numbers in child references
        are *virtual*: the machine's placement policy maps each one to a
        physical fabric node on first use (``Machine.place``), so the
        same program can be packed by rack affinity or striped across
        racks without changing a line of guest code.
        """
        node_field = childno >> NODE_SHIFT
        if node_field == 0:
            return childno, caller.home_node
        vnode = node_field - 1
        if not 0 <= vnode < self.machine.nnodes:
            raise KernelError(f"node {vnode} does not exist")
        return childno, self.machine.place(vnode, caller)

    def _lookup(self, caller, childno, create=True):
        child = caller.children.get(childno)
        if child is None:
            if not create:
                raise BadChildError(f"no child {childno} in space {caller.uid}")
            child = self.machine.new_space(caller, home_node=caller.cur_node)
            caller.attach(childno, child)
            self.kcharge(caller, self.machine.cost.space_create)
        return child

    def _rendezvous(self, caller, child):
        """Block the caller until a running child stops (paper §3.2)."""
        if child.state is not SpaceState.READY:
            return
        shard = self.machine.shard
        if shard is None or not shard.execute(caller, child):
            self.machine.engine.run_until_stopped(child)
        trace = self.machine.trace
        _, opened = trace.cut(caller.uid, label="rendezvous")
        last = trace.last_closed(child.uid)
        if last is not None:
            trace.edge(last, opened)
        # Quantum boundary: the control plane (if any) takes one decision
        # pass here, on the just-cut telemetry, so its knob deltas apply
        # from the next quantum on (repro.cluster.control).
        control = self.machine.control
        if control is not None:
            control.on_quantum(self.machine, caller)

    def migrate(self, space, target_node):
        """Move a space's execution to another node (paper §3.3).

        The space's memory image travels with it as a *delta*: the dirty
        ledger (via the space's per-node visit tokens) names the pages
        written since the space last resided on the target, and the
        target's tag cache drops the ones whose content already lives
        there.  The transport coalesces the survivors into batched
        scatter/gather messages behind a MIGRATE header.

        In ``ship_mode="demand"`` nothing ships eagerly: the same
        ledger enumeration instead seeds the *async prefetch queue* —
        the pages written since the space last visited the target are
        exactly the ones about to fault there, so their fetch is issued
        pipelined behind the MIGRATE message while the space resumes
        computing (migration-ledger-informed prediction).
        """
        if target_node == space.cur_node:
            return
        machine = self.machine
        cost = machine.cost
        src = space.cur_node
        shipped, walked, tracked, candidates = \
            self._migration_delta(space, target_node)
        # CPU-side work: pack register state + walk the candidate set
        # (ledger entries on a revisit; PTEs on a first visit or a
        # full ship).
        self.kcharge(space, cost.migrate_base
                     + walked * (cost.page_track if tracked
                                 else cost.page_scan))
        # Ledger harvest for the predictor: what this space wrote while
        # resident at src is what src will be asked to serve next.
        machine.note_dirty_hints(src, candidates)
        space.visit_tokens[src] = space.addrspace.dirty_token()
        machine.transport.migrate(space, src, target_node, shipped)
        space.cur_node = target_node
        if machine.spec.ship_mode == "demand":
            self._issue_prefetch(space, target_node, candidates)

    def _migration_delta(self, space, target_node):
        """Pages to ship with a migration:
        ``(shipped_frames, walked, tracked, candidates)``.

        Registers every shipped page's content tag in the target node's
        cache (the pages really arrive there).  ``walked`` counts
        enumeration work for cost charging; ``tracked`` says whether the
        dirty ledger answered (cheap per entry) or a full mapped-page
        walk was needed; ``candidates`` is the enumerated vpn set (the
        predictor's input).  In ``ship_mode="demand"`` no frames ship
        and no enumeration work is charged — the MIGRATE message
        carries only the summary.
        """
        machine = self.machine
        aspace = space.addrspace
        cache = machine.node_cache[target_node]
        mode = machine.spec.ship_mode
        token = None if mode == "full" \
            else space.visit_tokens.get(target_node)
        tracked = token is not None
        candidates = aspace.dirty_vpns_since(token) if tracked \
            else aspace.mapped_vpns()
        if mode == "demand":
            return [], 0, tracked, candidates
        shipped = []
        for vpn in candidates:
            frame = aspace.frame(vpn)
            if frame is None:
                continue
            if mode != "full" and cache.get(frame.serial) == frame.generation:
                continue
            cache[frame.serial] = frame.generation
            shipped.append(frame)
        return shipped, len(candidates), tracked, candidates

    def _issue_prefetch(self, space, node, vpn_stream, hint_origins=()):
        """Fill ``node``'s async fetch queue with predicted-next frames.

        ``vpn_stream`` is the prediction, in priority order (the
        sequential window past a faulting range, or the migration
        ledger's candidate set); ``hint_origins`` optionally extends it
        with each named node's recently written vpns
        (``machine.dirty_hints``), nearest fabric neighbors first.
        Candidates already cached, already in flight, or served locally
        are skipped; at most ``prefetch_depth - in_flight`` issue, so
        the queue never exceeds its depth.  Must run right after a cut
        (the transport anchors the exchange at the last closed
        segment).
        """
        machine = self.machine
        depth = machine.prefetch_depth_for(node)
        if depth <= 0 or machine.nnodes <= 1:
            return
        transport = machine.transport
        # Entries rewritten since they were issued are dead weight:
        # drop them (counted stale) before sizing the refill, so hot
        # pages churning under speculation re-pay their wire every
        # rewrite instead of squatting in the queue forever.
        transport.purge_superseded(node)
        budget = depth - transport.queue_len(node)
        if budget <= 0:
            return
        aspace = space.addrspace
        cache = machine.node_cache[node]
        origin_of = machine.frame_origin
        queue = transport.inflight.get(node, {})
        by_origin = {}
        seen = set()
        walked = 0

        def consider(vpn):
            frame = aspace.frame(vpn)
            if frame is None or frame.serial in seen:
                return 0
            seen.add(frame.serial)
            cached = cache.get(frame.serial)
            if cached == frame.generation:
                return 0
            if frame.serial in queue:
                return 0
            origin = origin_of.get(frame.serial, space.home_node)
            if origin == node:
                return 0
            by_origin.setdefault(origin, []).append(frame)
            if cached is not None:
                # Re-speculating on a page this node already fetched
                # once: its producer rewrote it since.  Recurring
                # refreshes are the churn signal the control plane's
                # collapse rule keys on — pages rewritten every round
                # make any depth's speculation a running wire tax.
                transport.node(node).prefetch_refresh += 1
            return 1

        for vpn in vpn_stream:
            if budget <= 0:
                break
            walked += 1
            budget -= consider(vpn)
        topo = machine.topology
        for origin in sorted(hint_origins,
                             key=lambda o: (topo.distance(o, node), o)):
            for vpn in reversed(machine.dirty_hints.get(origin, ())):
                if budget <= 0:
                    break
                walked += 1
                budget -= consider(vpn)
        # The predictor walks ledger entries, not page tables.
        self.kcharge(space, walked * machine.cost.page_track)
        for origin in sorted(by_origin):
            transport.prefetch(space, origin, node, by_origin[origin])

    def touch(self, space, addr, size, write=False, vpns=None):
        """Cluster demand paging: account for page fetches when a space
        accesses memory away from where its frames were last materialized.

        Unchanged frames (same ``(serial, generation)`` content tag) are
        served from the per-node read-only page cache, reproducing the
        §3.3 optimization that lets program text move free when a space
        revisits a node.  Writers bump the frame generation (in
        ``AddressSpace._store``), so a mutated frame carries a
        fresh tag and every other node refetches it on next use.

        Misses are pulled through the transport as one batched
        PAGE_REQ/PAGE_BATCH exchange per producing node — a scatter/
        gather round trip, not N independent per-page fetches.  A miss
        already *in flight* on the node's async prefetch queue redeems
        its exchange instead: the space waits only for whatever part of
        the transfer the compute since its issue did not hide.  Each
        demand batch also re-primes the queue with the predicted next
        frames (sequential past the faulted range, plus the producing
        nodes' recent-write hints).  ``vpns`` is the range's mapped vpns
        when the caller has already enumerated them.
        """
        machine = self.machine
        if machine.nnodes <= 1 or size == 0:
            return
        node = space.cur_node
        cache = machine.node_cache[node]
        origin_of = machine.frame_origin
        transport = machine.transport
        aspace = space.addrspace
        vpn0 = addr >> PAGE_SHIFT
        vpn1 = (addr + size - 1) >> PAGE_SHIFT
        # vpn-ascending batched pulls, grouped by producing node.
        fetch_by_origin = {}
        redeems = []
        # Unmapped vpns have nothing to fetch or cache.
        for vpn in aspace.mapped_vpns_in(vpn0, vpn1 + 1) if vpns is None else vpns:
            frame = aspace.frame(vpn)
            # The cache maps serial -> newest generation seen at this
            # node; older generations can never be served again, so
            # replacing (rather than accumulating) bounds the cache to
            # live frames.
            if write:
                cache[frame.serial] = frame.generation
                origin_of[frame.serial] = node
                machine.note_dirty_hints(node, (vpn,))
            elif cache.get(frame.serial) != frame.generation:
                exchange = transport.take_inflight(node, frame.serial,
                                                   frame.generation)
                cache[frame.serial] = frame.generation
                if exchange is not None:
                    if exchange not in redeems:
                        redeems.append(exchange)
                else:
                    origin = origin_of.get(frame.serial, space.home_node)
                    fetch_by_origin.setdefault(origin, []).append(frame)
        if redeems:
            transport.redeem_exchanges(space, node, redeems)
        for origin in sorted(fetch_by_origin):
            transport.fetch(space, origin, node, fetch_by_origin[origin])
        depth = machine.prefetch_depth_for(node)
        if fetch_by_origin and not write and depth > 0:
            self._issue_prefetch(space, node,
                                 aspace.mapped_vpns_in(
                                     vpn1 + 1,
                                     vpn1 + 1 + 4 * depth),
                                 hint_origins=sorted(fetch_by_origin))

    def _copy_subtree(self, caller, src_space, new_parent):
        """Deep COW clone of a space subtree (Tree option)."""
        if not src_space.is_stopped():
            raise KernelError("cannot Tree-copy a running space")
        clone = self.machine.new_space(new_parent, home_node=new_parent.cur_node)
        clone.addrspace = src_space.addrspace.clone()
        clone.regs = dict(src_space.regs)
        clone.trap = src_space.trap
        clone.state = (
            SpaceState.IDLE if src_space.state is SpaceState.IDLE else SpaceState.STOPPED
        )
        for num, grandchild in src_space.children.items():
            clone.attach(num, self._copy_subtree(caller, grandchild, clone))
        self.kcharge(
            caller,
            self.machine.cost.space_create
            + src_space.addrspace.mapped_page_count() * self.machine.cost.page_map,
        )
        return clone

    def _apply_copy(self, caller, dst_space, src_space, ranges):
        cost = self.machine.cost
        for src, dst, size in ranges:
            # One enumeration of the source serves the fetch, the copy
            # and the charge (an unaligned range never gets past Copy).
            source = src_space.addrspace
            vpns = source.mapped_vpns_in(
                src >> PAGE_SHIFT, -(-(src + size) >> PAGE_SHIFT))
            # Cross-node: the caller just migrated to the child's node, so
            # source pages it hasn't cached there must come over the wire.
            self.touch(src_space, src, size, vpns=vpns)
            dst_space.addrspace.copy_range_from(source, src, dst, size,
                                                src_vpns=vpns)
            self.kcharge(caller, cost.syscall // 10 + len(vpns) * cost.page_map)

    # -- Put ---------------------------------------------------------------

    def sys_put(
        self,
        caller,
        childno,
        regs=None,
        copy=None,
        zero=None,
        snap=None,
        perm=None,
        start=False,
        limit=None,
        tree=None,
        grant_io=False,
    ):
        """The Put system call.  See the module docstring for options."""
        cost = self.machine.cost
        self.kcharge(caller, cost.syscall)
        key, node = self._decode_child(caller, childno)
        self.migrate(caller, node)
        child = self._lookup(caller, key)
        self._rendezvous(caller, child)

        if regs:
            child.set_regs(regs)
        if grant_io:
            if not caller.io_privilege:
                raise KernelError("cannot delegate I/O privilege without it")
            child.io_privilege = True
        self._apply_copy(caller, child, caller, _normalize_ranges(copy, "copy"))
        for _, addr, size in _normalize_ranges(zero, "zero"):
            child.addrspace.zero_range(addr, size)
            self.kcharge(caller, cost.syscall // 10)
        if perm is not None:
            addr, size, p = perm
            child.addrspace.set_perm(addr, size, p)
        if snap is not None:
            addr, size = snap
            old = child.snapshot
            if old is not None and (old.addr, old.size) == (addr, size):
                # Incremental re-snap: only pages dirtied since the last
                # Snap are re-shared — O(dirty), not O(mapped).
                # page_track per ledger entry walked, page_map per frame
                # actually re-pinned (never more than the full capture of
                # the same end state would charge).
                repinned, walked = old.recapture(child.addrspace)
                self.kcharge(caller, walked * cost.page_track
                             + repinned * cost.page_map)
            else:
                if old is not None:
                    old.release()
                child.snapshot = Snapshot.capture(child.addrspace, addr, size)
                self.kcharge(caller,
                             child.snapshot.page_count() * cost.page_map)
        if tree is not None:
            src_child, dst_child = tree
            src = caller.children.get(src_child)
            if src is None:
                raise BadChildError(f"no child {src_child} to Tree-copy")
            old = child.children.get(dst_child)
            if old is not None:
                old.destroy()
            child.attach(dst_child, self._copy_subtree(caller, src, child))

        if start:
            self._start_child(caller, child, limit)
        return None

    def _start_child(self, caller, child, limit):
        cost = self.machine.cost
        trace = self.machine.trace
        if child.trap is Trap.INSN_LIMIT:
            self.kcharge(caller, cost.limit_resume)
        child.trap = Trap.NONE
        child.trap_info = ""
        child.insn_limit = limit
        child.state = SpaceState.READY
        closed, _ = trace.cut(caller.uid, label="put-start")
        if trace.is_open(child.uid):
            trace.edge(closed, trace.current(child.uid))
        else:
            seg = trace.begin(child.uid, node=child.cur_node, label="start")
            trace.edge(closed, seg)

    # -- Get ---------------------------------------------------------------

    def sys_get(
        self,
        caller,
        childno,
        regs=False,
        copy=None,
        zero=None,
        merge=None,
        merge_mode=None,
        perm=None,
        tree=None,
    ):
        """The Get system call.  Returns the child's register view when
        ``regs=True``, else None."""
        cost = self.machine.cost
        self.kcharge(caller, cost.syscall)
        key, node = self._decode_child(caller, childno)
        self.migrate(caller, node)
        child = self._lookup(caller, key)
        self._rendezvous(caller, child)

        self._apply_copy(caller, caller, child, _normalize_ranges(copy, "copy"))
        if perm is not None:
            addr, size, p = perm
            caller.addrspace.set_perm(addr, size, p)
        for _, addr, size in _normalize_ranges(zero, "zero"):
            caller.addrspace.zero_range(addr, size)
            self.kcharge(caller, cost.syscall // 10)
        if merge is not None and merge is not False:
            self._apply_merge(caller, child, merge, merge_mode)
        if tree is not None:
            src_child, dst_child = tree
            src = child.children.get(src_child)
            if src is None:
                raise BadChildError(f"no grandchild {src_child} to Tree-copy")
            old = caller.children.get(dst_child)
            if old is not None:
                old.destroy()
            caller.attach(dst_child, self._copy_subtree(caller, src, caller))
        if regs:
            return child.reg_view()
        return None

    def _apply_merge(self, caller, child, merge, merge_mode=None):
        if child.snapshot is None:
            raise KernelError(
                f"Merge requires a prior Snap on child of {caller.uid}"
            )
        if merge is True:
            addr = size = None
        else:
            addr, size = merge
        maddr = child.snapshot.addr if addr is None else addr
        msize = child.snapshot.size if size is None else size
        self.touch(child, maddr, msize)
        stats = MergeStats()
        try:
            merge_range(
                caller.addrspace,
                child.addrspace,
                child.snapshot,
                addr,
                size,
                mode=merge_mode or self.machine.merge_mode,
                stats=stats,
            )
        except MergeConflictError:
            # A conflict is still a merge that performed scan/diff work
            # (and may have written earlier batches): account it before
            # re-raising.  Argument-validation errors, by contrast,
            # propagate without leaving a stats record.
            self._finish_merge(caller, stats)
            raise
        self._finish_merge(caller, stats)

    def _finish_merge(self, caller, stats):
        """Post-merge accounting shared by the success and conflict paths."""
        cost = self.machine.cost
        # The merge changed these parent pages (diff writes, adoptions):
        # register their fresh tags at the merging node so the caller is
        # never charged a fetch for pages it just produced.  Only the
        # written pages — untouched parent pages whose content lives on
        # another node must still be fetched on next access.  The list is
        # consumed here so the retained stats log stays O(1) per merge.
        written = stats.written_vpns
        stats.written_vpns = ()
        if written and self.machine.nnodes > 1:
            node = caller.cur_node
            cache = self.machine.node_cache[node]
            aspace = caller.addrspace
            for vpn in written:
                frame = aspace.frame(vpn)
                if frame is not None:
                    cache[frame.serial] = frame.generation
                    self.machine.frame_origin[frame.serial] = node
            # Merged-in pages are fresh cross-node content: feed the
            # prefetch predictor's per-node recent-write hints.
            self.machine.note_dirty_hints(node, written)
        self.kcharge(
            caller,
            # One dirty-ledger entry inspected per candidate.
            stats.pages_scanned * cost.page_track
            + stats.batch_ops * cost.batch_diff
            + stats.pages_diffed * cost.page_diff
            + stats.pages_adopted * cost.page_adopt
            + stats.bytes_merged * cost.byte_merge,
        )
        self.machine.merge_stats_total.append(stats)

    # -- Ret ---------------------------------------------------------------

    def sys_ret(self, space):
        """The Ret system call: stop and wait for the parent.

        Migration back to the home node happens in the engine's stop
        path, which also covers traps and program exit (§3.3)."""
        self.kcharge(space, self.machine.cost.syscall)
        space.ctx._stop(Trap.RET)
