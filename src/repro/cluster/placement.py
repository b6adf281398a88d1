"""Placement: mapping program node numbers onto fabric nodes.

Programs address cluster nodes through the node field of child
references (``child_ref(local, node=...)``).  Those numbers are
*virtual*: the machine maps each one to a physical node the first time
it is used, and the mapping is sticky for the rest of the run (spaces
keep meeting where they expect to).  The mapping is a bijection over
``range(nnodes)``, so placement can never change *what* a program
computes — only where its traffic lands on the fabric.

A policy is one function ``table(topology)`` returning a permutation of
``range(topology.nnodes)``: entry ``vnode`` is the physical node that
virtual node is bound to on first use.  The table is fixed by the
topology alone and nothing rebinds a node during a run, so a forked
worker's first-use bindings are the ones the parent would make.  Two
ship, named by :data:`POLICIES`:

``round_robin``
    Stripe virtual nodes across racks (node 0 in rack 0, node 1 in
    rack 1, ...) — the classic load-spreading default.  On the flat
    fabric (one rack) this degenerates to the identity, which keeps
    pre-topology behavior bit-identical.
``locality``
    Pack by communication affinity: the identity.  Racks are
    contiguous node blocks, so contiguous virtual node blocks share a
    rack (the tree workloads split contiguous node ranges, so neighbors
    in virtual node space are exactly the pairs that talk).
"""


def round_robin(topology):
    """Stripe consecutive virtual nodes across racks."""
    return topology.striped()


def locality(topology):
    """Pack contiguous virtual node blocks into racks: virtual node
    ``v`` lands on physical node ``v``, in the rack that holds it."""
    return range(topology.nnodes)


#: Policy name -> ``table`` function.
POLICIES = {"round_robin": round_robin, "locality": locality}


def resolve_placement(name):
    """The ``table`` function of placement ``name`` (None ->
    ``"round_robin"``)."""
    if name is None:
        name = "round_robin"
    if not isinstance(name, str) or name not in POLICIES:
        raise ValueError(f"placement must be one of {sorted(POLICIES)}, "
                         f"got {name!r}")
    return POLICIES[name]
