"""Routed cluster fabrics: link classes, switches, and hop-by-hop routes.

The transport used to price every node pair identically — a fully
connected fabric where a byte between nodes 0 and 31 costs exactly what
a byte between rack neighbors costs.  Real clusters are *routed*:
traffic traverses switches, links come in latency/bandwidth classes, and
cross-rack links are shared by many node pairs (oversubscription), which
is what bends the scaling knee of data-heavy workloads long before
compute runs out.

A :class:`Topology` describes the fabric as a graph of nodes (ints) and
switches (strings), and answers two questions for the transport:

* :meth:`Topology.route` — the ordered directed links a message from
  ``src`` to ``dst`` traverses.  Every traversed link accrues bytes,
  messages, and serialization occupancy, so ``schedule()``'s link
  contention sees shared core links as the bottleneck they are.
* :meth:`Topology.link_class` — the :class:`LinkClass` of one link,
  giving its per-hop latency and bandwidth factors relative to the cost
  model's baseline ``net_latency`` / ``net_byte``.

Both answers for one route are memoized together as its *route record*
(:meth:`Topology.route_record`), which is what the transport reads.

Three presets:

``flat``
    The legacy fabric: every node pair directly connected by a
    full-bandwidth link.  Routes are single hops, costs are identical
    to the pre-topology transport.
``two_tier``
    Nodes grouped into racks behind top-of-rack switches, all racks
    behind one core switch.  Intra-rack hops are short; cross-rack
    traffic crosses two *oversubscribed* core links (default 4:1), and
    every cross-rack pair shares them.
``fat_tree``
    A folded-Clos / leaf-spine fabric: the same racks, but multiple
    core (spine) switches at full bisection bandwidth.  Cross-rack
    routes spread deterministically over the spines, so the fabric
    pays extra hops and latency but never oversubscribes.

Placements (:mod:`repro.cluster.placement`) read the rack
structure (:meth:`Topology.racks`, :meth:`Topology.striped`) to build
their node tables.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkClass:
    """Latency/bandwidth class of a fabric link.

    Factors are relative to the cost model's flat-fabric baseline:
    a hop's transit latency is ``latency_factor * cost.net_latency``
    and its per-byte wire cost is ``byte_factor * cost.net_byte``
    (``byte_factor > 1`` models an oversubscribed, slower-than-edge
    link).
    """

    name: str
    latency_factor: float = 1.0
    byte_factor: float = 1.0


#: The flat fabric's single class: a direct node-to-node cable.
NODE_CLASS = LinkClass("node", 1.0, 1.0)


def _shape(*classes):
    """The ``(classes, latency_factor)`` tail of a route record."""
    return classes, sum(cls.latency_factor for cls in classes)


#: The record of the empty route (``src == dst``).
_LOCAL = ((), *_shape())


class Topology:
    """Abstract routed fabric over ``nnodes`` cluster nodes."""

    name = "abstract"

    def __init__(self, nnodes):
        self.nnodes = nnodes
        #: (src, dst) -> route record (see :meth:`route_record`).
        self._routes = {}
        self._racks = None
        self._striped = None

    # -- routing -----------------------------------------------------------

    def route_record(self, src, dst):
        """The memoized record of the ``src -> dst`` route: ``(links,
        classes, latency_factor)`` — the ordered directed links a
        message traverses, each one's :class:`LinkClass` in the same
        order, and the sum of their latency factors.  A transport leg
        reads everything it needs about its route from this one lookup.
        ``src == dst`` is the empty route (local delivery never touches
        the wire).  Each preset builds its records from its own shape
        (:meth:`_build_record`): the ``(classes, latency_factor)`` tail
        of every route of one shape is a single shared tuple."""
        record = self._routes.get((src, dst))
        if record is None:
            record = self._routes[src, dst] = \
                _LOCAL if src == dst else self._build_record(src, dst)
        return record

    def route(self, src, dst):
        """Ordered directed links a message ``src -> dst`` traverses
        (the links of :meth:`route_record`)."""
        return self.route_record(src, dst)[0]

    def _build_record(self, src, dst):
        """The route record of ``src != dst``."""
        raise NotImplementedError

    def link_class(self, link):
        """The :class:`LinkClass` of one directed link."""
        raise NotImplementedError

    # -- structure read by placements --------------------------------------

    def racks(self):
        """Nodes grouped by rack, in rack order (flat = one big rack).

        Built once per topology and shared by every caller: treat the
        lists as read-only.
        """
        if self._racks is None:
            self._racks = self._build_racks()
        return self._racks

    def _build_racks(self):
        return [list(range(self.nnodes))]

    def striped(self):
        """Every node once, striped across racks: slot 0 of each rack in
        rack order, then slot 1, ... (ragged racks simply run out
        early).  Round-robin placement indexes this by virtual node."""
        if self._striped is None:
            racks = self.racks()
            self._striped = [
                rack[slot]
                for slot in range(max(len(rack) for rack in racks))
                for rack in racks if slot < len(rack)
            ]
        return self._striped

    def __repr__(self):
        return f"<{type(self).__name__} nnodes={self.nnodes}>"


class FlatTopology(Topology):
    """Full mesh: one direct full-bandwidth link per node pair."""

    name = "flat"
    _hop = _shape(NODE_CLASS)

    def _build_record(self, src, dst):
        return ((src, dst),), *self._hop

    def link_class(self, link):
        return NODE_CLASS


class _RackedTopology(Topology):
    """Shared rack structure of the switched presets: both use the same
    top-of-rack switches, the same short rack-class edge links (two of
    which sum to exactly the flat fabric's one-hop latency), and the
    same intra-rack routes — they differ only in the core layer."""

    rack_class = LinkClass("rack", 0.5, 1.0)

    def __init__(self, nnodes, rack_size=4):
        super().__init__(nnodes)
        self.rack_size = rack_size
        #: Top-of-rack switch names by rack, built once: every route
        #: through a switch holds the same name object.
        self._switches = [f"rack{rack}" for rack in range(self.nracks())]
        #: The two route shapes: intra-rack ``(rack, rack)`` and
        #: cross-rack ``(rack, core, core, rack)``.
        self._intra = _shape(self.rack_class, self.rack_class)
        self._cross = _shape(self.rack_class, self.core_class,
                             self.core_class, self.rack_class)

    def nracks(self):
        return (self.nnodes + self.rack_size - 1) // self.rack_size

    def _build_racks(self):
        return [list(range(r * self.rack_size,
                           min((r + 1) * self.rack_size, self.nnodes)))
                for r in range(self.nracks())]

    def _build_record(self, src, dst):
        a, b = src // self.rack_size, dst // self.rack_size
        sa = self._switches[a]
        if a == b:
            return ((src, sa), (sa, dst)), *self._intra
        sb = self._switches[b]
        core = self._core_switch(src, dst)
        return ((src, sa), (sa, core), (core, sb), (sb, dst)), *self._cross

    def _core_switch(self, src, dst):
        raise NotImplementedError


class TwoTierTopology(_RackedTopology):
    """Racks behind one oversubscribed core switch.

    Intra-rack: ``src -> rackA -> dst`` (two short rack-class hops,
    summing to exactly the flat fabric's latency).  Cross-rack:
    ``src -> rackA -> core -> rackB -> dst``; the two core-class hops
    are 4:1 oversubscribed (four times the per-byte cost) and are
    shared by every node pair spanning those racks — the bottleneck the
    flat fabric could not express.
    """

    name = "two_tier"
    core_class = LinkClass("core", 1.0, 4.0)

    def _core_switch(self, src, dst):
        return "core"

    def link_class(self, link):
        return self.core_class if "core" in link else self.rack_class


class FatTreeTopology(_RackedTopology):
    """Folded-Clos (leaf-spine) fabric: full bisection bandwidth.

    Same rack structure as :class:`TwoTierTopology`, but one core
    (spine) switch per rack slot, i.e. full bisection, and no
    oversubscription — every link runs at edge bandwidth.  A cross-rack
    route picks its spine deterministically from the node pair,
    spreading load across spines while keeping routes symmetric.
    """

    name = "fat_tree"
    core_class = LinkClass("core", 1.0, 1.0)

    def __init__(self, nnodes, rack_size=4):
        super().__init__(nnodes, rack_size)
        self.nspines = rack_size
        #: Spine switch names by index, built once like the racks'.
        self._spines = [f"core{n}" for n in range(self.nspines)]

    def _core_switch(self, src, dst):
        return self._spines[(src + dst) % self.nspines]

    def link_class(self, link):
        if link[0] in self._spines or link[1] in self._spines:
            return self.core_class
        return self.rack_class


#: Preset name -> constructor (``name:<rack_size>`` selects rack size).
PRESETS = {
    "flat": FlatTopology,
    "two_tier": TwoTierTopology,
    "fat_tree": FatTreeTopology,
}


def resolve_topology(spec, nnodes):
    """Build the :class:`Topology` for ``nnodes`` from None (flat) or a
    preset name (``"two_tier"``, optionally suffixed ``":<rack_size>"``
    as in ``"two_tier:2"``); a ``ValueError`` naming the topology for
    anything else."""
    if spec is None:
        return FlatTopology(nnodes)
    if not isinstance(spec, str):
        raise ValueError(f"topology must be a preset name, got {spec!r}")
    name, colon, arg = spec.partition(":")
    ctor = PRESETS.get(name)
    if ctor is None:
        raise ValueError(f"unknown topology {name!r} "
                         f"(have {sorted(PRESETS)})")
    if not colon:
        return ctor(nnodes)
    if ctor is FlatTopology:
        raise ValueError("flat topology takes no rack size")
    if not arg.isdecimal() or int(arg) < 1:
        raise ValueError(f"topology {spec!r}: the rack size must be a "
                         f"positive int")
    return ctor(nnodes, rack_size=int(arg))
