"""The Machine: one simulated computer (or homogeneous cluster).

The machine owns the space hierarchy, the guest engine, the execution
trace, and the I/O devices.  It plays the role of "everything outside the
root space": it supplies the root's nondeterministic inputs explicitly
(console input script, clock script) so a run is replayable byte for byte
— the paper's §2.1 discipline of turning nondeterminism into explicit,
controllable I/O.

Typical use::

    from repro.kernel import Machine

    def main(g):
        g.console_write(b"hello deterministic world\\n")
        return 0

    with Machine() as machine:
        result = machine.run(main)
        print(result.console.decode())
        print(result.makespan(ncpus=4))
"""

from collections import defaultdict
from functools import cached_property

from repro.common.errors import KernelError
from repro.kernel.engine import Engine
from repro.kernel.guest import Guest
from repro.kernel.kernel import Kernel
from repro.kernel.space import Space, SpaceState
from repro.mem.page import FrameAllocator
from repro.timing.model import CostModel
from repro.timing.schedule import schedule
from repro.timing.trace import Trace


class MachineResult:
    """Outcome of a completed :meth:`Machine.run`: the one finished-run
    object every runner (``Cluster.run``, ``run_cluster``,
    ``run_backend``, ``run_determinator``, ``serve_trace``) hands back
    or wraps."""

    def __init__(self, machine, ncpus=None):
        self.machine = machine
        root = machine.root
        #: The root space's status register at stop.
        self.status = root.regs["status"]
        #: The root space's r0 register (entry function's return value),
        #: also under the name every runner's result answers to.
        self.value = self.r0 = root.regs["r0"]
        #: Why the root stopped (RET, EXIT, or a fault trap).
        self.trap = root.trap
        self.trap_info = root.trap_info
        #: Everything written to the console device, in order.
        self.console = bytes(machine.console_output)
        #: Raw debug lines (paper §6.1's "real console" call).
        self.debug = list(machine.debug_lines)
        #: The recorded execution trace.
        self.trace = machine.trace
        #: CPUs per node :meth:`makespan` schedules on unless told
        #: otherwise: the cost model's core count for a bare machine;
        #: the cluster runners pass ``NODE_CPUS``.
        self.ncpus = machine.cost.ncpus if ncpus is None else ncpus

    def check(self, what="guest program"):
        """Raise ``RuntimeError`` if the root stopped in a fault trap;
        otherwise return the result itself."""
        if self.trap.name not in ("EXIT", "RET"):
            raise RuntimeError(
                f"{what} faulted: {self.trap.name} {self.trap_info}")
        return self

    @cached_property
    def network(self):
        """Traffic accounting of the run (built on first use)."""
        from repro.cluster.network import NetworkStats
        return NetworkStats(self.machine)

    def makespan(self, ncpus=None):
        """Virtual completion time on ``ncpus`` CPUs per node."""
        if ncpus is None:
            ncpus = self.ncpus
        return schedule(self.trace, ncpus=ncpus).makespan

    def total_cycles(self):
        """Total work performed (1-CPU lower bound)."""
        return self.trace.total_cycles()

    def __repr__(self):
        return f"<MachineResult trap={self.trap.name} status={self.status!r}>"


class Machine:
    """A simulated Determinator computer."""

    def __init__(
        self,
        nnodes=1,
        console_input=b"",
        time_script=(),
        merge_mode="strict",
        programs=None,
        spec=None,
    ):
        # Imported lazily: the cluster package's public modules import
        # Machine, so a module-level import here would cycle.
        from repro.cluster.control import resolve_control
        from repro.cluster.faults import resolve_loss
        from repro.cluster.placement import resolve_placement
        from repro.cluster.spec import ClusterSpec
        from repro.cluster.topology import resolve_topology
        from repro.cluster.transport import Transport
        if spec is None:
            spec = ClusterSpec()
        elif not isinstance(spec, ClusterSpec):
            raise TypeError(f"spec must be a ClusterSpec, got {spec!r}")
        #: The validated configuration this machine runs under: every
        #: cross-cutting knob (ship_mode, topology, loss, ...) lives on
        #: the spec and nowhere else — the machine keeps only the
        #: per-machine objects resolved from it below.
        self.spec = spec
        #: Cost model used for all virtual-time charging.
        self.cost = spec.cost if spec.cost is not None else CostModel()
        #: Number of cluster nodes (1 = single machine; §3.3).
        self.nnodes = nnodes
        #: Default merge conflict mode (see repro.mem.merge.merge_range).
        self.merge_mode = merge_mode
        #: Machine-owned frame serial source (no cross-machine state).
        self.frames = FrameAllocator()

        self.trace = Trace()
        self.engine = Engine(self)
        self.kernel = Kernel(self)
        self.root = None

        #: Named guest programs (resolvable by exec / string entries).
        self.programs = dict(programs or {})

        # Devices.
        if isinstance(console_input, str):
            console_input = console_input.encode()
        self._console_in = bytes(console_input)
        self._console_pos = 0
        self.console_output = bytearray()
        self._time_script = list(time_script)
        self._time_idx = 0
        self.debug_lines = []

        # Cluster bookkeeping.
        #: node -> {frame serial: newest generation materialized at that
        #: node} (§3.3 read-only page cache, keyed on content tags).
        self.node_cache = defaultdict(dict)
        #: frame serial -> node that produced its newest content; the
        #: transport pulls demand-fetched pages from there.
        self.frame_origin = {}
        #: node -> recent vpns written by spaces while resident there
        #: (harvested from the migration ledger and merge write-backs).
        #: The prefetch predictor reads a miss's producing node's list
        #: to guess what that producer will be asked for next.
        self.dirty_hints = defaultdict(list)
        #: Deterministic fault schedule of the fabric: None (lossless,
        #: the default — bit-identical to the pre-fault transport), a
        #: drop rate, a dict of LossSchedule kwargs, or a LossSchedule.
        #: Faults are cost-only: computed values and memory images are
        #: identical under any schedule (see repro.cluster.faults).
        self.loss = resolve_loss(spec.loss)
        #: Routed fabric the transport prices traffic over: "flat"
        #: (legacy full mesh, the default), "two_tier", "fat_tree", or a
        #: Topology instance/builder (see repro.cluster.topology).
        self.topology = resolve_topology(spec.topology, nnodes)
        #: Placement policy mapping program-visible (virtual) node
        #: numbers onto fabric nodes — "round_robin" (default; identity
        #: on the flat fabric), "locality", "identity", or a
        #: PlacementPolicy instance (see repro.cluster.placement).
        self.placement = resolve_placement(spec.placement)
        #: virtual node number -> physical node (sticky; see place()).
        #: Written only by bind_node, which keeps the inverse below in
        #: step.
        self.node_map = {}
        #: physical node -> the virtual node bound to it: the used set
        #: the bijection check and the placement policies consult.
        self.node_owner = {}
        #: Message-level interconnect all cross-node paths route through.
        self.transport = Transport(self)
        #: Deterministic adaptive control plane: None (static knobs, the
        #: default — byte-identical to the pre-control transport),
        #: "adaptive", a Controller kwargs dict, or a Controller.  The
        #: kernel invokes it at quantum boundaries; it tunes per-node
        #: prefetch depth, per-route retransmit timeouts, and placement
        #: from the transport's telemetry windows (repro.cluster.control).
        #: String and dict specs materialize a fresh (stateful)
        #: Controller per machine, so a spec shared across a sweep never
        #: leaks adaptation between runs.
        self.control = resolve_control(spec.control)
        if self.control is not None:
            self.control.reset(self)
        #: Sharded host execution (repro.kernel.shard): at a rendezvous
        #: with >= 2 never-run READY siblings, fork up to this many
        #: host processes, queue the sibling subtrees on them (a
        #: worker runs its queue one subtree at a time, rewinding to
        #: the fork-time machine in between) and adopt each result
        #: bit-identically where the serial engine would have run it.
        #: 0 or 1 keeps the serial engine alone.  Under backend="real"
        #: the workers are real host processes speaking the cluster
        #: protocol over localhost sockets (repro.cluster.backend), one
        #: per cluster node by default.
        if spec.backend == "real":
            from repro.cluster.backend import RealShardCoordinator
            workers = spec.shard_workers if spec.shard_workers >= 1 \
                else max(1, nnodes)
            self.shard = RealShardCoordinator(self, workers)
        elif spec.shard_workers >= 2:
            from repro.kernel.shard import ShardCoordinator
            self.shard = ShardCoordinator(self, spec.shard_workers)
        else:
            self.shard = None

        #: MergeStats of every kernel merge (tests, ablations).
        self.merge_stats_total = []

        self._uid_counter = 0
        self._closed = False

    # -- cluster bookkeeping -------------------------------------------------

    @property
    def pages_fetched(self):
        """Total pages that crossed the wire: migration-shipped plus
        demand-fetched plus prefetched (the transport keeps the split)."""
        wire = self.transport
        return wire.pages_shipped + wire.pages_pulled + wire.pages_prefetched

    #: Bound on each node's dirty-hint list (predictor input, not state
    #: the simulation depends on — determinism needs the *content* to be
    #: reproducible, which it is, not unbounded).
    DIRTY_HINT_CAP = 128

    def note_dirty_hints(self, node, vpns):
        """Record recently written vpns at ``node`` for the prefetch
        predictor, newest last, bounded by :data:`DIRTY_HINT_CAP`."""
        hints = self.dirty_hints[node]
        hints.extend(vpns)
        if len(hints) > self.DIRTY_HINT_CAP:
            del hints[:len(hints) - self.DIRTY_HINT_CAP]

    # -- adaptive knob reads -------------------------------------------------

    def prefetch_depth_for(self, node):
        """Effective prefetch-queue depth of ``node``: the controller's
        adaptive per-node depth when a control plane is attached, else
        the static ``prefetch_depth`` knob."""
        if self.control is not None:
            return self.control.depth_for(node)
        return self.spec.prefetch_depth

    def retx_timeout_for(self, src, dst):
        """Effective retransmit timeout of the ``src``/``dst`` route:
        the controller's SRTT-derived per-route timer when a control
        plane is attached (falling back to the static knob before the
        route's first clean sample), else ``cost.retx_timeout``."""
        if self.control is not None:
            timeout = self.control.timeout_for(src, dst)
            if timeout is not None:
                return timeout
        return self.cost.retx_timeout

    # -- placement ----------------------------------------------------------

    def place(self, vnode, caller=None):
        """Physical node of program-visible node number ``vnode``.

        The placement policy chooses on first use (reading topology and
        live transport stats); afterwards the assignment is sticky, so a
        program always finds its children where it left them.  The map
        is a bijection over ``range(nnodes)`` — placement relocates
        traffic, never semantics.
        """
        phys = self.node_map.get(vnode)
        if phys is None:
            phys = self.placement.assign(self, caller, vnode)
            self.bind_node(vnode, phys)
        return phys

    def bind_node(self, vnode, phys):
        """Bind ``vnode`` to free physical node ``phys`` — the only
        writer of ``node_map`` and ``node_owner`` — refusing anything
        that would break the bijection over ``range(nnodes)``."""
        if not 0 <= phys < self.nnodes:
            raise KernelError(
                f"placement policy {self.placement.name!r} returned "
                f"node {phys} for virtual node {vnode}")
        if phys in self.node_owner:
            raise KernelError(
                f"placement policy {self.placement.name!r} reused "
                f"node {phys} (virtual node {vnode})")
        self.node_map[vnode] = phys
        self.node_owner[phys] = vnode

    def swap_nodes(self, b, c):
        """Exchange the virtual nodes bound to physical nodes ``b`` and
        ``c`` (either may be unbound); the map stays a bijection."""
        owner = self.node_owner
        moves = ((owner.pop(b, None), c), (owner.pop(c, None), b))
        for vnode, phys in moves:
            if vnode is not None:
                self.bind_node(vnode, phys)

    # -- space management ---------------------------------------------------

    def new_space(self, parent, home_node=0):
        """Allocate a space (kernel-internal)."""
        self._uid_counter += 1
        return Space(self, parent, f"s{self._uid_counter}", home_node)

    def resolve_entry(self, space):
        """Resolve a space's entry register to a callable."""
        entry = space.regs["entry"]
        if callable(entry):
            return entry
        if isinstance(entry, str):
            try:
                return self.programs[entry]
            except KeyError:
                raise KernelError(f"no program named {entry!r}") from None
        raise KernelError(f"space {space.uid} started with no entry")

    def make_guest(self, space):
        """Build the guest API handle for a space (engine callback)."""
        return Guest(self.kernel, space)

    # -- running -----------------------------------------------------------

    def run(self, entry, args=(), limit=None, ncpus=None):
        """Create the root space, run it to completion, drain stragglers.

        ``entry`` may be a callable ``entry(g, *args)`` or the name of a
        registered program.  Returns a :class:`MachineResult` whose
        makespan defaults to ``ncpus`` CPUs per node (None: the cost
        model's core count).
        """
        if self.root is not None:
            raise KernelError("machine already ran; create a fresh Machine")
        root = self.new_space(None, home_node=self.place(0))
        root.io_privilege = True
        root.regs["entry"] = entry
        root.regs["args"] = tuple(args)
        root.insn_limit = limit
        root.state = SpaceState.READY
        self.root = root
        self.trace.begin(root.uid, node=root.home_node, label="root")
        self.engine.run_until_stopped(root)
        self._drain()
        # Mispredicted prefetches still in flight must occupy their
        # links in the schedule even though nobody waits on them.
        self.transport.flush_inflight()
        self.trace.finish()
        return MachineResult(self, ncpus)

    def _drain(self):
        """Run spaces that were started but never joined, so their work
        appears in the trace (they cannot affect anyone's results —
        isolation — but they do occupy CPUs)."""
        progress = True
        while progress:
            progress = False
            for space in self.root.walk():
                if space.state is SpaceState.READY:
                    self.engine.run_until_stopped(space)
                    progress = True

    # -- devices -----------------------------------------------------------

    def dev_console_write(self, data):
        """Console output device (root-mediated)."""
        self.console_output.extend(data)

    def dev_console_read(self, n):
        """Console input device: the next ``n`` scripted bytes."""
        data = self._console_in[self._console_pos : self._console_pos + n]
        self._console_pos += len(data)
        return data

    def dev_time(self):
        """Clock device: scripted timestamps, then a deterministic ramp."""
        if self._time_idx < len(self._time_script):
            value = self._time_script[self._time_idx]
        else:
            value = 10**6 + self._time_idx
        self._time_idx += 1
        return value

    def dev_debug(self, space, message):
        """Immediate debug output, reflecting true execution order (§6.1)."""
        self.debug_lines.append(f"[{space.uid}] {message}")

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Unwind all guest stacks, retire the worker threads and
        release memory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.engine.shutdown()
        if self.shard is not None:
            self.shard.close()
        if self.root is not None:
            self.root.destroy()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
