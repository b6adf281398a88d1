"""`ClusterSpec`: every cross-cutting knob of a simulated run, in one place.

The eleven knobs (`tcp_mode`, `ship_mode`, `topology`, `placement`,
`prefetch_depth`, `compression`, `loss`, `control`, `shard_workers`,
`cost`, `backend`) are fields of one frozen dataclass,
and every entry point — ``Machine``, ``Cluster``, ``sweep_nodes``,
``run_cluster``, ``serve_trace``, ``run_backend``, ``run_real`` — takes
it as ``spec=`` and nothing else:

* **One validation site.**  ``ship_mode`` membership, ``prefetch_depth``
  range, ``loss``/``control``/``placement`` spec syntax all raise here,
  at construction, before any machine exists.
* **One spelling.**  ``Machine(spec=ClusterSpec(ship_mode="demand"))``
  is the only way to say it; a mistyped field is Python's own
  ``TypeError`` from the dataclass constructor.
* **Frozen value semantics.**  A spec can be built once and shared by a
  whole sweep; anything *stateful* (a live ``Controller``, the resolved
  ``Topology`` for a concrete node count) is materialized per machine by
  the module ``resolve_*`` functions, never stored on the spec.

The CPU count of a node is not a knob: every cluster runner schedules
its trace on :data:`NODE_CPUS`, the paper's uniprocessor cluster nodes
(§6.3); ``result.makespan(ncpus=k)`` reads any other count off the same
run.

Typical use::

    from repro import ClusterSpec, Cluster

    spec = ClusterSpec(ship_mode="demand", prefetch_depth=16,
                       topology="two_tier:2", placement="locality",
                       loss=0.01, compression=True)
    result = Cluster(nnodes=8, spec=spec).run(my_program)
"""

from dataclasses import dataclass, replace

from repro.cluster.control import resolve_control
from repro.cluster.faults import resolve_loss
from repro.cluster.placement import resolve_placement
from repro.timing.model import CostModel

#: CPUs per cluster node every cluster runner schedules a run's trace on.
NODE_CPUS = 1

#: Migration page-shipping policies (see repro.cluster.transport).
SHIP_MODES = ("delta", "full", "demand")

#: Execution backends (see repro.cluster.backend and docs/backends.md).
BACKENDS = ("sim", "real")


@dataclass(frozen=True)
class ClusterSpec:
    """Immutable bundle of every cross-cutting configuration knob.

    ``docs/knobs.md`` is the full field reference; the defaults are a
    bare ``Machine()``/``Cluster(...)``.
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
    #: Routed fabric: preset string, Topology, or nnodes -> Topology.
    topology: object = None
    #: Virtual-node placement policy (None -> "round_robin").
    placement: object = None
    #: Async fetch-queue depth per node (0: stop-and-wait).
    prefetch_depth: int = 0
    #: PAGE_BATCH wire compression (zero suppression + RLE).
    compression: bool = False
    #: Deterministic fault schedule (rate, kwargs dict, LossSchedule).
    loss: object = None
    #: Adaptive control plane ("adaptive", kwargs dict, Controller).
    control: object = None
    #: Forked host workers for sibling subtrees (< 2 disables).
    shard_workers: int = 0
    #: Execution backend: "sim" (one process, modeled wire — the
    #: oracle) or "real" (host processes + localhost sockets, measured
    #: wall-clock; see repro.cluster.backend and docs/backends.md).
    backend: str = "sim"

    def __post_init__(self):
        object.__setattr__(self, "tcp_mode", bool(self.tcp_mode))
        object.__setattr__(self, "compression", bool(self.compression))
        if self.ship_mode not in SHIP_MODES:
            raise ValueError(f"unknown ship_mode {self.ship_mode!r} "
                             f"(expected one of {SHIP_MODES})")
        if not isinstance(self.prefetch_depth, int) or self.prefetch_depth < 0:
            raise ValueError(f"prefetch_depth must be a non-negative int, "
                             f"got {self.prefetch_depth!r}")
        if not isinstance(self.shard_workers, int) or self.shard_workers < 0:
            raise ValueError(f"shard_workers must be a non-negative int, "
                             f"got {self.shard_workers!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r} "
                             f"(expected one of {BACKENDS})")
        if self.cost is not None and not isinstance(self.cost, CostModel):
            raise ValueError(f"cost must be a CostModel or None, "
                             f"got {self.cost!r}")
        # Spec-syntax validation happens here — once — by running the
        # same resolvers the machine will use.  The throwaway results
        # are discarded: anything stateful must be materialized fresh
        # per machine (``Machine.__init__`` resolves them again).
        resolve_loss(self.loss)
        resolve_control(self.control)
        resolve_placement(self.placement)

    def with_(self, **changes):
        """A copy with ``changes`` applied (validated like any spec)."""
        return replace(self, **changes)
