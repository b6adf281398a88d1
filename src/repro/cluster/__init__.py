"""Cluster distribution: routed transport + operator conveniences (§3.3).

The kernel decides *what* crosses nodes (node fields in child numbers,
migration deltas, demand paging against the tag cache); this package
owns *how* it crosses and what that costs:

* :class:`~repro.cluster.topology.Topology` — the routed fabric:
  ``flat`` (legacy full mesh), ``two_tier`` (racks behind one
  oversubscribed core switch), and ``fat_tree`` (leaf-spine, full
  bisection) presets, each link carrying a latency/bandwidth
  :class:`~repro.cluster.topology.LinkClass`;
* :class:`~repro.cluster.transport.Transport` — the simulated
  interconnect: typed messages (MIGRATE, PAGE_REQ, PAGE_BATCH, ACK)
  routed hop-by-hop over the fabric, with migration deltas and demand
  fetches coalesced into batched scatter/gather messages; every
  traversed link accrues occupancy, so shared cross-rack core links
  contend in ``schedule()``.  Per-space, per-node *async fetch
  queues* (``ClusterSpec(prefetch_depth=...)``) pipeline
  predicted-next frames behind compute, and
  ``ClusterSpec(compression=True)`` ships PAGE_BATCH payloads
  zero-suppressed/RLE-encoded
  (:mod:`repro.cluster.compress`);
* :class:`~repro.cluster.faults.LossSchedule` — deterministic fault
  injection (``ClusterSpec(loss=...)``): per-link drop decisions keyed
  on the link, the sending space's slot path, its own message number
  and the attempt replay bit-identically, on every backend;
  the transport retransmits dropped copies (``cost.retx_timeout`` /
  ``retx_limit``), keeps a per-link retransmit ledger
  (``NetworkStats.retx_table()``), and charges timeout waits as
  ``kind="retx"`` stall edges — loss is cost-only, never touching
  computed values;
* placements (:mod:`repro.cluster.placement`) — map
  program-visible node numbers onto fabric nodes: ``round_robin``
  stripes across racks, ``locality`` packs contiguous node blocks per
  rack (both are tables the topology fixes);
* the real-process backend (:mod:`repro.cluster.backend` over
  :mod:`repro.cluster.realnet`) — ``ClusterSpec(backend="real")`` runs
  each cluster-node subtree in a real host process with the protocol's
  typed messages framed over real localhost sockets; the simulated run
  stays the bit-identical oracle for values, memory images, and
  ledgers, while measured wall-clock joins simulated cycles as a
  second timing column (``backend.run_backend``; ``backend.RealRunResult``
  wraps the ``MachineResult`` with wall-clock, image and wire ledgers).
  It is imported from its own module: this package does not load it;
* :class:`NetworkStats` — a read-through view of the transport's
  ledgers (it copies nothing): migration hops, page/byte/message
  totals, per-class (rack vs cross-rack) aggregates
  (``NetworkStats.class_table()``), a per-link breakdown
  (``NetworkStats.link_table()``), and the per-node page counters
  (``NetworkStats.node_table()``), the same on every backend.

Cluster programs fork and join across nodes with
:mod:`repro.cluster.cluster`'s ``fork_child`` / ``join_child``.
"""

from repro.cluster.network import NetworkStats
from repro.cluster.faults import RetxBill
from repro.cluster.topology import LinkClass
from repro.cluster.transport import (
    LinkStats,
    MsgType,
    PrefetchExchange,
    Transport,
)

__all__ = [
    "NetworkStats",
    "RetxBill",
    "Transport", "MsgType", "LinkStats", "PrefetchExchange", "LinkClass",
]
