"""Complexity guards: an exchange costs what its route holds.

A migration over an H-hop route is a forward leg and an ACK leg, each a
single walk of its route's link rows (DESIGN §3 "A leg is one walk of
its route").  Counting wrappers on the topology, the cost model and the
trace's transfer list hold that by count: once a route pair has been
used, one more ``migrate`` looks each route up once, prices a message
once per distinct link class on it, never asks the topology for a
link's class again, and enters its H stall edges with one ``extend``.
When every *message* walked the route (and ``_receive`` and
``_stall_edges`` walked it again) each of these counts grew with
messages × hops.  Counts, not wall-clock: these cannot flake.
"""

from types import SimpleNamespace

import pytest

from repro import ClusterSpec
from repro.kernel import Machine
from repro.mem import PAGE_SIZE, Page

NODES = 8
SRC, DST = 0, 7
#: MIGRATE and one PAGE_BATCH out, one ACK back.
MESSAGES = 3


class CountingList(list):
    """A transfer list that counts how it is grown."""

    appends = extends = 0

    def append(self, item):
        self.appends += 1
        super().append(item)

    def extend(self, items):
        self.extends += 1
        super().extend(items)


def counted(owner, name, calls):
    """Wrap ``owner.name`` (on the instance) to tally its calls."""
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args, **kwargs)

    setattr(owner, name, wrapper)


@pytest.fixture(params=["two_tier", "fat_tree"])
def world(request):
    machine = Machine(nnodes=NODES, spec=ClusterSpec(topology=request.param))
    space = SimpleNamespace(uid="space")
    machine.trace.begin(space.uid, node=SRC)
    calls = {}
    counted(machine.topology, "route", calls)
    counted(machine.topology, "link_class", calls)
    counted(machine.cost, "link_message", calls)
    machine.trace.transfers = CountingList()
    frames = [Page(bytes([n + 1]) * PAGE_SIZE) for n in range(3)]
    return machine, space, frames, calls


def test_a_first_use_asks_for_a_class_once_per_new_row(world):
    machine, space, frames, calls = world
    machine.transport.migrate(space, SRC, DST, frames)
    hops = machine.topology.distance(SRC, DST)
    assert hops == 4 and len(machine.transport.links) == 2 * hops
    # One per row created, and the route's latency sum (memoized).
    assert calls["link_class"] <= len(machine.transport.links) + hops


def test_a_used_route_is_walked_once_per_leg(world):
    machine, space, frames, calls = world
    transport = machine.transport
    transport.migrate(space, SRC, DST, frames)
    transport.migrate(space, DST, SRC, [])
    route = machine.topology.route(SRC, DST)
    classes = {transport.links[link].link_class for link in route}
    assert len(route) == 4 and len(classes) == 2
    before = dict(transport.links[route[1]].as_dict())
    calls.clear()
    transfers = machine.trace.transfers
    transfers.appends = transfers.extends = 0
    edges = len(transfers)

    transport.migrate(space, SRC, DST, frames)

    assert calls.get("route", 0) <= 2
    assert calls.get("link_class", 0) == 0
    assert calls["link_message"] <= MESSAGES * len(classes)
    assert (transfers.extends, transfers.appends) == (1, 0)
    assert len(transfers) - edges == len(route)
    # ... and it is still one message per link per message.
    after = transport.links[route[1]].as_dict()
    assert after["messages"] - before["messages"] == 2
    assert after["by_type"] == {"MIGRATE": 2, "PAGE_BATCH": 2, "ACK": 1}
    assert transport.conservation_ok()
