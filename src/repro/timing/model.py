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

from dataclasses import dataclass, field, replace


@dataclass
class CostModel:
    """Virtual-cycle costs for every simulated event.

    Four prices are constructor fields a caller sets
    (``CostModel(msg_batch=1)``, ``cost.with_(...)``); the ``init=False``
    rest are the calibrated constants, read the same way
    (``cost.page_cow``).
    """

    # ---- CPUs ----------------------------------------------------------
    #: CPUs per node (the paper's PC has 12 cores; cluster nodes have 1).
    ncpus: int = 12

    # ---- Determinator kernel ------------------------------------------
    #: Trap + kernel entry/exit + context switch for one syscall.
    syscall: int = field(default=3000, init=False)
    #: Establish one COW page mapping (Copy/Snap share a frame).
    page_map: int = field(default=120, init=False)
    #: Break copy-on-write: allocate + copy one 4 KiB frame.
    page_cow: int = field(default=1800, init=False)
    #: Demand-zero fill one frame.
    page_zero: int = field(default=700, init=False)
    #: Inspect one page-table entry: a migration's walk of every mapped
    #: page (first visit to a node, or ``ship_mode="full"``).
    page_scan: int = field(default=25, init=False)
    #: Inspect one dirty-ledger entry during Snap/Merge/migration (a
    #: ledger walk touches only written pages, and each entry is a
    #: cache-hot word rather than a PTE hierarchy probe).
    page_track: int = field(default=6, init=False)
    #: Fixed dispatch overhead of one stacked (N, 4096) batched diff
    #: (gather + one vectorized compare, amortized across its pages).
    batch_diff: int = field(default=900, init=False)
    #: Byte-diff one page pair during Merge.
    page_diff: int = field(default=1400, init=False)
    #: Adopt a whole child frame during Merge (parent unchanged).
    page_adopt: int = field(default=200, init=False)
    #: Per byte actually copied by Merge.
    byte_merge: int = field(default=1, init=False)
    #: Create a fresh space (allocate kernel structures).
    space_create: int = field(default=5000, init=False)
    #: Fixed overhead of resuming a space after an instruction-limit trap
    #: (the ReVirt-style performance-counter + debug-trace dance, §5).
    limit_resume: int = field(default=2500, init=False)
    #: Pages of program image (text, data, runtime) whose mappings every
    #: thread fork copies/snapshots beyond the workload's own data —
    #: the fixed per-interaction cost that makes fine-grained parallelism
    #: expensive under VM-based determinism (§6.2).
    fork_image_pages: int = field(default=400, init=False)

    # ---- Baseline ("Linux"/pthreads) simulator -------------------------
    #: pthread_create / clone().
    thread_create: int = field(default=14000, init=False)
    #: pthread_join of a finished thread.
    thread_join: int = field(default=5000, init=False)
    #: Uncontended lock/unlock or barrier arrival.
    lock_op: int = field(default=250, init=False)
    #: Serialized cost per create/join/contended-futex, *per active core*:
    #: models the thread-system scaling bottleneck the paper suspects [54].
    runqueue_penalty: int = field(default=1100, init=False)
    #: Relative timing jitter applied to baseline segments (schedules on
    #: real hardware are never exactly repeatable).
    jitter: float = field(default=0.02, init=False)
    #: Compute dilation per additional active core for allocation-heavy
    #: baseline code: shared-namespace (heap/futex) contention in the
    #: Linux thread system, the effect §2.4 and [14]/[54] describe and
    #: the paper suspects behind md5's poor Linux scaling.  Determinator
    #: threads have private heaps and pay nothing.
    malloc_contention: float = field(default=0.13, init=False)
    #: Seed for the baseline's nondeterministic schedule.
    seed: int = 2010

    # ---- Cluster network (raw Ethernet, §3.3) --------------------------
    #: One-way message latency in cycles (~27 us at 2.2 GHz — a switched
    #: GbE segment as in the paper's QEMU cluster).
    net_latency: int = field(default=60_000, init=False)
    #: Cycles per payload byte (~1 Gb/s at 2.2 GHz).
    net_byte: float = field(default=18.0, init=False)
    #: Fixed per-message framing/handling cost.
    net_msg: int = field(default=9000, init=False)
    #: Extra per-message cost when TCP-like round-trip timing and
    #: retransmission framing is enabled (§6.3 measures <2% impact).
    tcp_extra: int = field(default=1200, init=False)
    #: Migrate a space: register state + address-space summary (§3.3).
    migrate_base: int = field(default=40_000, init=False)
    #: Maximum pages coalesced into one PAGE_BATCH scatter/gather
    #: message (cluster transport).  1 reproduces the seed's
    #: one-message-per-page protocol; larger values amortize the
    #: per-message latency and framing across the batch.
    msg_batch: int = 32
    #: Per-page scatter/gather header bytes inside a PAGE_BATCH.
    page_hdr: int = field(default=16, init=False)
    #: Payload bytes of a control message (PAGE_REQ/ACK header; a
    #: PAGE_REQ additionally carries 8 bytes per requested page).
    msg_ctrl: int = field(default=64, init=False)
    #: Payload bytes of a MIGRATE message: register file plus the
    #: address-space summary that lets the target demand-fault the rest.
    migrate_bytes: int = field(default=512, init=False)
    #: Encode cost of wire compression, in cycles per *raw* payload
    #: byte scanned at the sending node (zero-run RLE is a single
    #: sequential pass).  Charged as pipeline latency on the transfer,
    #: never as link occupancy — the codec runs beside the NIC, not on
    #: the wire.
    comp_encode_byte: float = field(default=1.0, init=False)
    #: Decode cost, in cycles per *compressed* payload byte expanded at
    #: the receiving node (zero pages decode for free: a mapping to the
    #: shared zero frame, not a memset).
    comp_decode_byte: float = field(default=0.5, init=False)
    #: Cycles a sending endpoint waits before retransmitting a hop copy
    #: the deterministic loss schedule dropped (``ClusterSpec(loss=...)``):
    #: ~4x the one-way latency, a conventional link-layer timer.  The
    #: wait is charged to the stalling exchange as a ``kind="retx"``
    #: trace link edge, anchored at the exchange's schedule segments.
    retx_timeout: int = field(default=240_000, init=False)
    #: Maximum retransmissions per hop copy before the transport
    #: declares the link dead and raises NetworkLossError.
    retx_limit: int = 8

    def __post_init__(self):
        for name, least in (("ncpus", 1), ("msg_batch", 1),
                            ("retx_limit", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(
                    f"{name} must be an int >= {least}, got {value!r}")

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
