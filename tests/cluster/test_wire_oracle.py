"""Differential oracle for the hop-major leg.

``ReferenceTransport`` (``wire_oracle.py``) is the send path as it was
when every *message* walked its route — ``_send``, ``_receive``,
``_ship``, ``_page_exchange``, ``_stall_edges`` and the three exchange
methods above them, verbatim.  Every hypothesis example builds the same
machine twice, swaps the reference transport into one, and drives both
in lockstep through a drawn sequence of ``migrate`` / ``fetch`` /
``prefetch`` / redeem / rewrite / purge steps over the same frame
objects.  After every step the two must be indistinguishable: every
link and node row (values *and* insertion order, ``by_type``
included), the seven scalars, ``trace.transfers``, ``trace.edges``, the
queued exchanges with their ``RetxBill`` and each space's message
count.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from skewed_workload import skewed_main
from wire_oracle import ReferenceTransport
from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.cluster import Transport
from repro.cluster.faults import LossSchedule
from repro.common.errors import NetworkLossError
from repro.kernel import Machine
from repro.mem import PAGE_SIZE, Page
from repro.timing.model import CostModel

NODES = 6
FRAMES = 12
SPACES = 3

TOPOLOGIES = ["flat", "two_tier", "fat_tree:2"]
LOSSES = {
    "lossless": None,
    "1%": 0.01,
    "30%": {"drop": 0.3, "seed": 7},
}

nodes = st.integers(0, NODES - 1)
frame_sets = st.lists(st.integers(0, FRAMES - 1), unique=True, max_size=5)

steps = st.one_of(
    st.tuples(st.just("migrate"), st.integers(0, SPACES - 1), nodes,
              frame_sets),
    st.tuples(st.just("fetch"), st.integers(0, SPACES - 1), nodes, nodes,
              frame_sets),
    st.tuples(st.just("prefetch"), st.integers(0, SPACES - 1), nodes, nodes,
              frame_sets),
    st.tuples(st.just("redeem"), st.integers(0, SPACES - 1), nodes),
    st.tuples(st.just("rewrite"), st.integers(0, FRAMES - 1)),
    st.tuples(st.just("purge"), st.integers(0, SPACES - 1), nodes),
)

configs = st.fixed_dictionaries({
    "compression": st.booleans(),
    "msg_batch": st.sampled_from([1, 3, 32]),
})


def make_frames():
    """Zero, constant, sparse and incompressible pages, so the codec
    sizes differ under compression."""
    frames = []
    for n in range(FRAMES):
        if n % 4 == 0:
            data = bytes(PAGE_SIZE)
        elif n % 4 == 1:
            data = bytes([n]) * PAGE_SIZE
        elif n % 4 == 2:
            data = bytes(PAGE_SIZE - 64) + bytes(range(64))
        else:
            data = bytes((n * 31 + k * k) % 251 for k in range(PAGE_SIZE))
        frames.append(Page(data))
    return frames


class World:
    """One machine with ``SPACES`` traced contexts, spread over nodes."""

    def __init__(self, transport_class, topology, loss, config):
        self.machine = machine = Machine(nnodes=NODES, spec=ClusterSpec(
            topology=topology, loss=loss, compression=config["compression"],
            cost=CostModel(msg_batch=config["msg_batch"])))
        machine.transport = transport_class(machine)
        self.spaces = [SimpleNamespace(uid=f"space{n}", messages=0,
                                       inflight={},
                                       slot_path=lambda n=n: [n])
                       for n in range(SPACES)]
        self.where = {}
        for n, space in enumerate(self.spaces):
            machine.trace.begin(space.uid, node=n)
            self.where[space.uid] = n

    def step(self, step, frames):
        transport = self.machine.transport
        kind = step[0]
        if kind == "migrate":
            space, dst = self.spaces[step[1]], step[2]
            src = self.where[space.uid]
            self.machine.trace.charge(space.uid, 1000)
            transport.migrate(space, src, dst, [frames[n] for n in step[3]])
            self.where[space.uid] = dst
        elif kind == "fetch":
            _, space, origin, node, which = step
            transport.fetch(self.spaces[space], origin, node,
                            [frames[n] for n in which])
        elif kind == "prefetch":
            _, space, origin, node, which = step
            self.machine.trace.cut(self.spaces[space].uid, label="issue")
            transport.prefetch(self.spaces[space], origin, node,
                               [frames[n] for n in which])
        elif kind == "redeem":
            space = self.spaces[step[1]]
            node = step[2]
            queue = space.inflight.get(node)
            if queue:
                serial, (generation, _, frame) = next(iter(queue.items()))
                exchange = transport.take_inflight(space, node, serial,
                                                   frame.generation)
                if exchange is not None:
                    transport.redeem_exchanges(space, node, [exchange])
        elif kind == "purge":
            transport.purge_superseded(self.spaces[step[1]], step[2])

    def flush(self):
        """End of run: sink what every space still has queued, in
        space order (as a machine walks its tree)."""
        self.machine.transport.flush_inflight(
            SimpleNamespace(walk=lambda: self.spaces))


def observe(machine, spaces=()):
    """Everything the send path can move, order included (``spaces``:
    whose prefetch queues)."""
    transport = machine.transport
    return {
        "links": [(link, list(row.as_dict().items()),
                   list(row.by_type.items()))
                  for link, row in transport.links.items()],
        "nodes": [(node, row.as_dict())
                  for node, row in transport.nodes.items()],
        "scalars": {name: getattr(transport, name)
                    for name in Transport.SCALARS},
        "transfers": list(machine.trace.transfers),
        "edges": list(machine.trace.edges),
        "segments": [(uid, node, label) for _, uid, node, _, label, _
                     in machine.trace.segments],
        "inflight": [
            (n, node, serial, generation, exchange.anchor,
             list(exchange.usage.items()), exchange.latency,
             None if exchange.retx is None else
             (list(exchange.retx.usage.items()), exchange.retx.wait))
            for n, space in enumerate(spaces)
            for node, queue in space.inflight.items()
            for serial, (generation, exchange, _) in queue.items()],
        "cache": {node: dict(cache)
                  for node, cache in machine.node_cache.items()},
        "conserves": transport.conservation_ok(),
    }


def run_step(world, step, frames):
    """The ``NetworkLossError`` the step raised, or None."""
    try:
        world.step(step, frames)
    except NetworkLossError as error:
        return error
    return None


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@settings(max_examples=30, deadline=None)
@given(config=configs, script=st.lists(steps, min_size=1, max_size=14))
def test_a_leg_accounts_what_per_message_sends_did(topology, loss, config,
                                                   script):
    frames = make_frames()
    production = World(Transport, topology, LOSSES[loss], config)
    reference = World(ReferenceTransport, topology, LOSSES[loss], config)
    for step in script + [("flush",)]:
        if step[0] == "rewrite":
            frames[step[1]].bump()
            continue
        if step[0] == "flush":
            production.flush()
            reference.flush()
        else:
            aborted = run_step(production, step, frames)
            reference_aborted = run_step(reference, step, frames)
            assert (aborted is None) == (reference_aborted is None)
            if aborted is not None:
                # Which copy exhausts first, and what was sent before
                # it, is where hop-major order shows (DESIGN §5).
                return
        seen, wanted = (observe(world.machine, world.spaces)
                        for world in (production, reference))
        for name in wanted:
            assert seen[name] == wanted[name], (name, step)
        assert seen["conserves"]
        # Each space numbered its messages alike on both sides.
        assert {(n,): space.messages for n, space in
                enumerate(production.spaces) if space.messages} == \
            reference.machine.transport.numbers


class DeadLink(LossSchedule):
    """Every copy on one directed link is dropped, nothing else is."""

    def __init__(self, link):
        super().__init__(drop=1.0)
        self.link = link

    def drops(self, link, sender, number, attempt=0):
        return link == self.link


@pytest.mark.parametrize("hop", [0, 1, 3])
def test_an_ack_that_dies_is_accounted_alike(hop):
    """Only a migration's ACK leg crosses the dead link: both send paths
    drop every copy of the ACK on that hop, deliver none of it, send it
    no further, and raise nothing."""
    frames = make_frames()
    config = {"compression": False, "msg_batch": 1}
    worlds = [World(cls, "two_tier", 1.0, config)
              for cls in (Transport, ReferenceTransport)]
    for world in worlds:
        route = world.machine.topology.route(NODES - 1, 0)
        world.machine.loss = DeadLink(route[hop])
        world.step(("migrate", 0, NODES - 1, [1, 2]), frames)
    seen, wanted = (observe(world.machine, world.spaces) for world in worlds)
    assert seen == wanted
    assert seen["conserves"]
    assert route[hop] in worlds[0].machine.transport.links
    if hop < len(route) - 1:
        assert route[hop + 1] not in worlds[0].machine.transport.links


@pytest.mark.parametrize("builder, spec", [
    (cw.matmult_tree_main(64), {"topology": "two_tier:2"}),
    (cw.matmult_tree_main(64),
     {"topology": "fat_tree:2", "compression": True, "prefetch_depth": 4,
      "ship_mode": "demand"}),
    # Purges superseded queue entries every round, under loss.
    (skewed_main,
     {"topology": "two_tier:2", "prefetch_depth": 4, "ship_mode": "demand",
      "loss": {"drop": 0.05, "seed": 5}}),
], ids=["eager", "prefetch+codec", "lossy+purge"])
def test_a_whole_run_is_the_same_run(builder, spec, monkeypatch):
    """The guest-driven call mix (kernel-issued prefetch, redeem and
    purge) over a real workload."""
    _, production, value = cw.run_cluster(builder, 4,
                                          spec=ClusterSpec(**spec))
    monkeypatch.setattr("repro.cluster.transport.Transport",
                        ReferenceTransport)
    _, reference, reference_value = cw.run_cluster(
        builder, 4, spec=ClusterSpec(**spec))
    assert type(reference.transport) is ReferenceTransport
    assert type(production.transport) is Transport
    assert value == reference_value
    seen, wanted = observe(production), observe(reference)
    for name in wanted:
        assert seen[name] == wanted[name], name
    assert production.trace.transfers
