"""Placement policies: mapping program node numbers onto fabric nodes.

Programs address cluster nodes through the node field of child
references (``child_ref(local, node=...)``).  Those numbers are
*virtual*: the machine maps each one to a physical node the first time
it is used, and the mapping is sticky for the rest of the run (spaces
keep meeting where they expect to).  The mapping is a bijection over
``range(nnodes)``, so placement can never change *what* a program
computes — only where its traffic lands on the fabric.

A policy is one function ``assign(machine, vnode)`` that chooses the
physical node of first-used virtual ``vnode``.  It may read any machine
state — topology, current ``node_map`` and its inverse ``node_owner``,
live transport counters — but must return an unused physical node in
``range(machine.nnodes)`` (``Machine.bind_node`` refuses anything else).
Two ship, named by :data:`POLICIES`:

``round_robin``
    Stripe virtual nodes across racks (node 0 in rack 0, node 1 in
    rack 1, ...) — the classic load-spreading default.  On the flat
    fabric (one rack) this degenerates to the identity, which keeps
    pre-topology behavior bit-identical.
``locality``
    Pack by communication affinity: contiguous virtual node blocks
    share a rack (the tree workloads split contiguous node ranges, so
    neighbors in virtual node space are exactly the pairs that talk).
    When the natural rack is full the spill rack is chosen by live
    per-link transport stats — the rack whose core uplinks carry the
    least occupancy so far wins.
"""


def round_robin(machine, vnode):
    """Stripe consecutive virtual nodes across racks."""
    return machine.topology.striped()[vnode]


def locality(machine, vnode):
    """Pack contiguous virtual node blocks into racks; spill by load.

    The affinity signal is the virtual node number itself: the cluster
    workloads fork over contiguous node ranges, so virtual neighbors
    communicate.  The natural home of ``vnode`` is the rack that holds
    physical node ``vnode`` (block packing).  If that rack has no free
    slot, the spill rack is picked from the transport's live per-link
    stats: least core-uplink occupancy first, then most free slots,
    then lowest rack index — all deterministic.
    """
    topo = machine.topology
    used = machine.node_owner
    racks = topo.racks()
    home = racks[topo.rack_of(vnode)]
    for node in home:
        if node not in used:
            return node
    links = machine.transport.links
    best = None
    for ridx, rack in enumerate(racks):
        free = [n for n in rack if n not in used]
        if not free:
            continue
        uplink_busy = sum(links[link].busy_cycles
                          for link in topo.uplinks(ridx) if link in links)
        key = (uplink_busy, -len(free), ridx)
        if best is None or key < best[0]:
            best = (key, free[0])
    if best is None:
        raise ValueError(f"no free node for virtual node {vnode}")
    return best[1]


#: Policy name -> ``assign`` function.
POLICIES = {"round_robin": round_robin, "locality": locality}


def resolve_placement(name):
    """The ``assign`` function of placement ``name`` (None ->
    ``"round_robin"``)."""
    if name is None:
        name = "round_robin"
    if not isinstance(name, str) or name not in POLICIES:
        raise ValueError(f"placement must be one of {sorted(POLICIES)}, "
                         f"got {name!r}")
    return POLICIES[name]
