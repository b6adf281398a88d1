"""`ClusterSpec`: every cross-cutting knob of a simulated run, in one place.

The ten knobs (`tcp_mode`, `ship_mode`, `topology`, `placement`,
`prefetch_depth`, `compression`, `loss`, `shard_workers`, `cost`,
`backend`) are fields of one frozen dataclass,
and every entry point — ``Machine``, ``run_cluster``, ``sweep_nodes``,
``serve_trace``, ``run_backend`` — takes it as ``spec=`` and nothing
else:

* **One validation site.**  ``ship_mode`` membership,
  ``prefetch_depth``/``shard_workers`` range and type (an ``int``, never
  a ``bool``), ``tcp_mode``/``compression`` type (a ``bool``, never
  coerced), ``loss``/``placement``/``topology`` syntax all raise here,
  at construction, before any machine exists.
* **One spelling.**  ``Machine(spec=ClusterSpec(ship_mode="demand"))``
  is the only way to say it, and every field is a plain value: a preset
  string, a policy name, a rate or a small dict — never a live object.
  A mistyped field or dict key is Python's own ``TypeError`` from the
  constructor it reaches; any other form of a field is a
  ``ValueError`` naming it.
* **Frozen value semantics.**  A spec can be built once and shared by a
  whole sweep; anything *stateful* (the ``Topology`` for a concrete
  node count) is built per machine, never stored on the spec.

The CPU count of a node is not a knob: every cluster runner schedules
its trace on :data:`NODE_CPUS`, the paper's uniprocessor cluster nodes
(§6.3); ``result.makespan(ncpus=k)`` reads any other count off the same
run.

Typical use::

    from repro import ClusterSpec
    from repro.bench.cluster_workloads import run_cluster

    spec = ClusterSpec(ship_mode="demand", prefetch_depth=16,
                       topology="two_tier:2", placement="locality",
                       loss=0.01, compression=True)
    makespan, machine, value = run_cluster(my_main, 8, spec=spec)
"""

from dataclasses import dataclass, replace

from repro.cluster.faults import resolve_loss
from repro.cluster.placement import resolve_placement
from repro.cluster.topology import resolve_topology
from repro.timing.model import CostModel

#: CPUs per cluster node every cluster runner schedules a run's trace on.
NODE_CPUS = 1

#: Migration page-shipping modes (see repro.cluster.transport).
SHIP_MODES = ("delta", "full", "demand")

#: Execution backends (see repro.cluster.backend and docs/backends.md).
BACKENDS = ("sim", "real")


@dataclass(frozen=True)
class ClusterSpec:
    """Immutable bundle of every cross-cutting configuration knob.

    ``docs/knobs.md`` is the full field reference; the defaults are a
    bare ``Machine()``/``run_cluster(...)``.
    """

    #: Cycle-price table (None -> a default :class:`CostModel` per run).
    cost: object = None
    #: TCP-like framing surcharge on every cluster message (§6.3).
    tcp_mode: bool = False
    #: Migration page shipping: ``"delta"`` ships only pages whose
    #: content the target node does not already hold (visit tokens
    #: answered from the dirty ledger + per-node tag cache); ``"full"``
    #: re-ships every mapped page on every hop (the naive protocol, the
    #: delta-ship ablation baseline); ``"demand"`` ships nothing eagerly
    #: — pages fault over on first touch (the paper's baseline §3.3
    #: protocol, and the stage for the prefetch ablation).
    ship_mode: str = "delta"
    #: Routed fabric preset: "flat" (None), "two_tier[:rack]",
    #: "fat_tree[:rack]".
    topology: object = None
    #: Virtual-node placement policy: "round_robin" (None), "locality".
    placement: object = None
    #: Async fetch-queue depth: in-flight frames per space per node
    #: (0: stop-and-wait).
    prefetch_depth: int = 0
    #: PAGE_BATCH wire compression (zero suppression + RLE).
    compression: bool = False
    #: Deterministic fault schedule: a drop rate or a {"drop", "seed"}
    #: dict (None or a zero rate: the lossless fabric).
    loss: object = None
    #: Forked host workers for sibling subtrees (< 2 disables).
    shard_workers: int = 0
    #: Execution backend: "sim" (one process, modeled wire — the
    #: oracle) or "real" (host processes + localhost sockets, measured
    #: wall-clock; see repro.cluster.backend and docs/backends.md).
    backend: str = "sim"

    def __post_init__(self):
        for name in ("tcp_mode", "compression"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        if self.ship_mode not in SHIP_MODES:
            raise ValueError(f"unknown ship_mode {self.ship_mode!r} "
                             f"(expected one of {SHIP_MODES})")
        for name in ("prefetch_depth", "shard_workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                raise ValueError(f"{name} must be a non-negative int, "
                                 f"got {value!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r} "
                             f"(expected one of {BACKENDS})")
        if self.cost is not None and not isinstance(self.cost, CostModel):
            raise ValueError(f"cost must be a CostModel or None, "
                             f"got {self.cost!r}")
        # Spec-syntax validation happens here — once — by running the
        # same resolvers the machine will use (the topology on one
        # node).  The throwaway results are discarded: anything stateful
        # must be built fresh per machine (``Machine.__init__`` resolves
        # them again).
        resolve_loss(self.loss)
        resolve_placement(self.placement)
        resolve_topology(self.topology, 1)

    def with_(self, **changes):
        """A copy with ``changes`` applied (validated like any spec)."""
        return replace(self, **changes)
