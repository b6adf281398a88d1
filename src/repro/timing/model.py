"""Cost model: how many virtual cycles each simulated event costs.

One cycle corresponds loosely to one instruction on the paper's 2.2 GHz
Opteron.  The absolute values are calibrated so the *first-order ratios*
the paper's evaluation depends on hold:

* a kernel crossing costs thousands of cycles, not tens;
* copying/diffing a 4 KiB page costs on the order of a thousand cycles;
* a gigabit-Ethernet page transfer costs tens of thousands of cycles and
  a message round trip hundreds of thousands (so moving a 1024x1024
  matrix across nodes dwarfs a few rendezvous);
* baseline thread operations are cheap but suffer a serialization
  penalty growing with core count (the Linux runqueue/futex contention
  the paper cites for md5's poor Linux scaling [54]).
"""

from dataclasses import dataclass, replace


@dataclass
class CostModel:
    """Tunable virtual-cycle costs for every simulated event."""

    # ---- CPUs ----------------------------------------------------------
    #: CPUs per node (the paper's PC has 12 cores; cluster nodes have 1).
    ncpus: int = 12

    # ---- Determinator kernel ------------------------------------------
    #: Trap + kernel entry/exit + context switch for one syscall.
    syscall: int = 3000
    #: Establish one COW page mapping (Copy/Snap share a frame).
    page_map: int = 120
    #: Break copy-on-write: allocate + copy one 4 KiB frame.
    page_cow: int = 1800
    #: Demand-zero fill one frame.
    page_zero: int = 700
    #: Inspect one page-table entry: a migration's walk of every mapped
    #: page (first visit to a node, or ``ship_mode="full"``).
    page_scan: int = 25
    #: Inspect one dirty-ledger entry during Snap/Merge/migration (a
    #: ledger walk touches only written pages, and each entry is a
    #: cache-hot word rather than a PTE hierarchy probe).
    page_track: int = 6
    #: Fixed dispatch overhead of one stacked (N, 4096) batched diff
    #: (gather + one vectorized compare, amortized across its pages).
    batch_diff: int = 900
    #: Byte-diff one page pair during Merge.
    page_diff: int = 1400
    #: Adopt a whole child frame during Merge (parent unchanged).
    page_adopt: int = 200
    #: Per byte actually copied by Merge.
    byte_merge: int = 1
    #: Create a fresh space (allocate kernel structures).
    space_create: int = 5000
    #: Fixed overhead of resuming a space after an instruction-limit trap
    #: (the ReVirt-style performance-counter + debug-trace dance, §5).
    limit_resume: int = 2500
    #: Pages of program image (text, data, runtime) whose mappings every
    #: thread fork copies/snapshots beyond the workload's own data —
    #: the fixed per-interaction cost that makes fine-grained parallelism
    #: expensive under VM-based determinism (§6.2).
    fork_image_pages: int = 400

    # ---- Baseline ("Linux"/pthreads) simulator -------------------------
    #: pthread_create / clone().
    thread_create: int = 14000
    #: pthread_join of a finished thread.
    thread_join: int = 5000
    #: Uncontended lock/unlock or barrier arrival.
    lock_op: int = 250
    #: Serialized cost per create/join/contended-futex, *per active core*:
    #: models the thread-system scaling bottleneck the paper suspects [54].
    runqueue_penalty: int = 1100
    #: Relative timing jitter applied to baseline segments (schedules on
    #: real hardware are never exactly repeatable).
    jitter: float = 0.02
    #: Compute dilation per additional active core for allocation-heavy
    #: baseline code: shared-namespace (heap/futex) contention in the
    #: Linux thread system, the effect §2.4 and [14]/[54] describe and
    #: the paper suspects behind md5's poor Linux scaling.  Determinator
    #: threads have private heaps and pay nothing.
    malloc_contention: float = 0.13
    #: Seed for the baseline's nondeterministic schedule.
    seed: int = 2010

    # ---- Cluster network (raw Ethernet, §3.3) --------------------------
    #: One-way message latency in cycles (~27 us at 2.2 GHz — a switched
    #: GbE segment as in the paper's QEMU cluster).
    net_latency: int = 60_000
    #: Cycles per payload byte (~1 Gb/s at 2.2 GHz).
    net_byte: float = 18.0
    #: Fixed per-message framing/handling cost.
    net_msg: int = 9000
    #: Extra per-message cost when TCP-like round-trip timing and
    #: retransmission framing is enabled (§6.3 measures <2% impact).
    tcp_extra: int = 1200
    #: Migrate a space: register state + address-space summary (§3.3).
    migrate_base: int = 40_000
    #: Maximum pages coalesced into one PAGE_BATCH scatter/gather
    #: message (cluster transport).  1 reproduces the seed's
    #: one-message-per-page protocol; larger values amortize the
    #: per-message latency and framing across the batch.
    msg_batch: int = 32
    #: Per-page scatter/gather header bytes inside a PAGE_BATCH.
    page_hdr: int = 16
    #: Payload bytes of a control message (PAGE_REQ/ACK header; a
    #: PAGE_REQ additionally carries 8 bytes per requested page).
    msg_ctrl: int = 64
    #: Payload bytes of a MIGRATE message: register file plus the
    #: address-space summary that lets the target demand-fault the rest.
    migrate_bytes: int = 512
    #: Encode cost of wire compression, in cycles per *raw* payload
    #: byte scanned at the sending node (zero-run RLE is a single
    #: sequential pass).  Charged as pipeline latency on the transfer,
    #: never as link occupancy — the codec runs beside the NIC, not on
    #: the wire.
    comp_encode_byte: float = 1.0
    #: Decode cost, in cycles per *compressed* payload byte expanded at
    #: the receiving node (zero pages decode for free: a mapping to the
    #: shared zero frame, not a memset).
    comp_decode_byte: float = 0.5
    #: Cycles a sending endpoint waits before retransmitting a hop copy
    #: the deterministic loss schedule dropped (``ClusterSpec(loss=...)``):
    #: ~4x the one-way latency, a conventional link-layer timer.  The
    #: wait is charged to the stalling exchange as a ``kind="retx"``
    #: trace link edge, anchored at the exchange's schedule segments.
    retx_timeout: int = 240_000
    #: Maximum retransmissions per hop copy before the transport
    #: declares the link dead and raises NetworkLossError.
    retx_limit: int = 8
    #: Cycles one control-plane decision pass costs the deciding space
    #: (``ClusterSpec(control=...)``): the controller reads the telemetry
    #: window and updates its knobs at a quantum boundary.  Default 0 —
    #: the controller is modelled as running beside the kernel on the
    #: management plane, off the guest's critical path; raise it to
    #: charge decisions to the rendezvousing space instead.
    ctrl_decide: int = 0

    def with_(self, **kwargs):
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def message(self, nbytes, tcp=False):
        """Cycles consumed on the wire by one message of ``nbytes``."""
        return self.link_message(nbytes, tcp=tcp)

    def link_message(self, nbytes, byte_factor=1.0, tcp=False):
        """Cycles one message of ``nbytes`` occupies a fabric link.

        ``byte_factor`` scales the per-byte cost for the link's
        bandwidth class (see :class:`repro.cluster.topology.LinkClass`):
        1.0 is a full-bandwidth edge link, >1 an oversubscribed shared
        link.  Framing (``net_msg``/``tcp_extra``) is paid per hop —
        every switch handles the message again.
        """
        extra = self.tcp_extra if tcp else 0
        return int(self.net_msg + extra + nbytes * self.net_byte * byte_factor)
