"""`ClusterSpec`: every cross-cutting knob of a simulated run, in one place.

The twelve knobs (`tcp_mode`, `ship_mode`, `topology`, `placement`,
`prefetch_depth`, `compression`, `loss`, `control`, `shard_workers`,
`cost`, `cpus_per_node`, `backend`) are fields of one frozen dataclass,
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
  the ``resolve_*`` helpers, never stored on the spec.

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
from repro.cluster.topology import resolve_topology
from repro.timing.model import CostModel

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
    #: CPUs per cluster node used when scheduling the run's trace.  The
    #: spec carries it so the machine and every cluster runner (the
    #: ``MachineResult`` they return, the serving latency extractor)
    #: agree on the CPU count the numbers were computed against.
    cpus_per_node: int = 1
    #: TCP-like framing surcharge on every cluster message (§6.3).
    tcp_mode: bool = False
    #: Migration page shipping: "delta", "full", or "demand".
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
        if not isinstance(self.cpus_per_node, int) or self.cpus_per_node < 1:
            raise ValueError(f"cpus_per_node must be a positive int, "
                             f"got {self.cpus_per_node!r}")
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
        # per machine (see the resolve_* methods).
        resolve_loss(self.loss)
        resolve_control(self.control)
        resolve_placement(self.placement)

    def with_(self, **changes):
        """A copy with ``changes`` applied (validated like any spec)."""
        return replace(self, **changes)

    # -- per-machine materialization ----------------------------------------

    def resolved_cost(self):
        """The run's :class:`CostModel` (a default one when unset)."""
        return self.cost if self.cost is not None else CostModel()

    def resolve_loss(self):
        """A :class:`~repro.cluster.faults.LossSchedule` (or None).
        Schedules are pure functions, so sharing one is harmless — but
        resolving per machine keeps dict/rate specs cheap to reuse."""
        return resolve_loss(self.loss)

    def resolve_control(self):
        """A fresh :class:`~repro.cluster.control.Controller` (or None)
        for one machine.  Controllers are *stateful*; string/dict specs
        materialize a new one per machine so a spec shared across a
        sweep never leaks adaptation between runs."""
        return resolve_control(self.control)

    def resolve_placement(self):
        """A placement policy instance for one machine."""
        return resolve_placement(self.placement)

    def resolve_topology(self, nnodes):
        """The concrete :class:`~repro.cluster.topology.Topology` for a
        machine of ``nnodes`` (presets and builders need the size, so
        this is the one resolver that cannot run at spec construction)."""
        return resolve_topology(self.topology, nnodes)
