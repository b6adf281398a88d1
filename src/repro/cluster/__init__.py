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
  traversed link accrues occupancy, so shared cross-rack uplinks
  contend in ``schedule()``.  Per-node *async fetch queues*
  (``ClusterSpec(prefetch_depth=...)``) pipeline predicted-next frames
  behind compute, and ``ClusterSpec(compression=True)`` ships PAGE_BATCH
  payloads zero-suppressed/RLE-encoded
  (:mod:`repro.cluster.compress`);
* :class:`~repro.cluster.faults.LossSchedule` — deterministic fault
  injection (``ClusterSpec(loss=...)``): per-link drop decisions keyed
  on ``(link, message serial, attempt)`` replay bit-identically;
  the transport retransmits dropped copies (``cost.retx_timeout`` /
  ``retx_limit``), keeps a per-link retransmit ledger
  (``NetworkStats.retx_table()``), and charges timeout waits as
  ``kind="retx"`` stall edges — loss is cost-only, never touching
  computed values;
* placement policies (:mod:`repro.cluster.placement`) — map
  program-visible node numbers onto fabric nodes: ``round_robin``
  stripes across racks, ``locality`` packs by communication affinity
  using the transport's live per-link stats;
* the real-process backend (:mod:`repro.cluster.backend` over
  :mod:`repro.cluster.realnet`) — ``ClusterSpec(backend="real")`` runs
  each cluster-node subtree in a real host process with the protocol's
  typed messages framed over real localhost sockets; the simulated run
  stays the bit-identical oracle for values, memory images, and
  ledgers, while measured wall-clock joins simulated cycles as a
  second timing column (:func:`run_real`; :class:`RealRunResult` wraps
  the ``MachineResult`` with wall-clock, image and wire ledgers);
* :class:`Cluster` — construct, run and time a multi-node machine with
  one call; like every runner it returns the run's
  :class:`~repro.kernel.machine.MachineResult` (``value``,
  ``makespan()`` on ``NODE_CPUS``, ``network``);
* :class:`NetworkStats` — a read-through view of the transport's
  ledgers (it copies nothing): migration hops, page/byte/message
  totals, per-class (rack vs cross-rack) aggregates
  (``NetworkStats.class_table()``), a per-link breakdown
  (``NetworkStats.link_table()``), and the telemetry window
  (``NetworkStats.window()``), the same on every backend;
* :func:`sweep_nodes` — run the same program across cluster sizes and
  collect the speedup series (the Figure 11 primitive).
"""

from repro.cluster.network import NetworkStats
from repro.cluster.backend import (
    RealRunResult,
    RealShardCoordinator,
    image_digest,
    run_backend,
    run_real,
)
from repro.cluster.cluster import Cluster, sweep_nodes
from repro.cluster.control import Controller, resolve_control
from repro.cluster.faults import LossSchedule, RetxBill, resolve_loss
from repro.cluster.placement import (
    LocalityAwarePlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    resolve_placement,
)
from repro.cluster.topology import (
    FatTreeTopology,
    FlatTopology,
    LinkClass,
    Topology,
    TwoTierTopology,
    resolve_topology,
)
from repro.cluster.transport import (
    LinkStats,
    MsgType,
    PrefetchExchange,
    TelemetryWindow,
    Transport,
)

__all__ = [
    "NetworkStats", "Cluster", "sweep_nodes",
    "RealRunResult", "RealShardCoordinator", "image_digest",
    "run_backend", "run_real",
    "LossSchedule", "RetxBill", "resolve_loss",
    "Controller", "resolve_control", "TelemetryWindow",
    "Transport", "MsgType", "LinkStats", "PrefetchExchange",
    "Topology", "FlatTopology", "TwoTierTopology", "FatTreeTopology",
    "LinkClass", "resolve_topology",
    "PlacementPolicy", "RoundRobinPlacement", "LocalityAwarePlacement",
    "resolve_placement",
]
