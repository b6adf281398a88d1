"""Complexity guards: an exchange costs what its route holds.

A migration over an H-hop route is a forward leg and an ACK leg, each a
single walk of its route's link rows (DESIGN §3 "A leg is one walk of
its route").  Counting wrappers on the topology, the cost model and the
trace's transfer list hold that by count: once a route pair has been
used, one more ``migrate`` reads each route from its memoized route
record — no ``route`` or ``link_class`` call — prices
no message it has priced before, and enters its H stall edges with one
``extend``.  A first use asks for no ``link_class`` either (the preset
builds the record from its shape) and copies no row it creates.  When
every *message* walked the route (and ``_receive``
and ``_stall_edges`` walked it again) each of these counts grew with
messages × hops.  Counts, not wall-clock: these cannot flake.
"""

from types import SimpleNamespace

import pytest

from repro import ClusterSpec
from repro.cluster.transport import CounterRow, NodeStats
from repro.kernel import Machine
from repro.kernel.ledgers import LEDGERS
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
    space = SimpleNamespace(uid="space", messages=0)
    machine.trace.begin(space.uid, node=SRC)
    calls = {}
    counted(machine.topology, "route", calls)
    counted(machine.topology, "link_class", calls)
    counted(machine.cost, "link_message", calls)
    machine.trace.transfers.link = CountingList()
    frames = [Page(bytes([n + 1]) * PAGE_SIZE) for n in range(3)]
    return machine, space, frames, calls


def test_a_first_use_asks_the_topology_for_no_class(world, monkeypatch):
    machine, space, frames, calls = world
    marks = []
    as_dict = CounterRow.as_dict

    def counted_as_dict(row):
        marks.append(type(row))
        return as_dict(row)

    monkeypatch.setattr(CounterRow, "as_dict", counted_as_dict)
    machine.transport.migrate(space, SRC, DST, frames)
    hops = len(machine.topology.route(SRC, DST))
    assert hops == 4 and len(machine.transport.links) == 2 * hops
    # The route records come from the preset's shape and the rows take
    # their class from the record: the topology is asked for none.
    assert calls.get("link_class", 0) == 0
    # The fresh link rows are made without a copy.
    assert marks == []
    # A price per distinct (message size, byte factor): MIGRATE, the
    # PAGE_BATCH and the ACK over one byte factor (fat_tree) or two.
    assert calls["link_message"] <= MESSAGES * 2


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
    transfers = machine.trace.transfers.link
    transfers.appends = transfers.extends = 0
    edges = len(transfers)

    transport.migrate(space, SRC, DST, frames)

    # The topology is asked nothing: each leg reads its route record.
    assert calls.get("route", 0) == 0
    assert calls.get("link_class", 0) == 0
    # Every message of this migrate was priced by the first one.
    assert calls.get("link_message", 0) == 0
    assert (transfers.extends, transfers.appends) == (1, 0)
    assert len(transfers) - edges == len(route)
    # ... and it is still one message per link per message.
    after = transport.links[route[1]].as_dict()
    assert after["messages"] - before["messages"] == 2
    assert after["by_type"] == {"MIGRATE": 2, "PAGE_BATCH": 2, "ACK": 1}
    assert transport.conservation_ok()


def test_a_row_born_in_a_window_reports_from_its_creation(world):
    """A shard worker hands back each node row's moves since its fork
    mark (``kernel/ledgers.py``): a row created since reports from its
    creation, and a window in which nothing moved reports no row."""
    machine, space, frames, _ = world
    transport = machine.transport
    nodes = next(ledger for ledger in LEDGERS if ledger.key == "nodes")
    mark = nodes.mark(machine)
    assert nodes.delta(machine, mark) == {}
    transport.fetch(space, SRC, DST, frames)
    assert nodes.delta(machine, mark)[DST] == dict(
        NodeStats().as_dict(), pulled=len(frames))
    mark = nodes.mark(machine)
    transport.fetch(space, SRC, DST, frames[:1])
    transport.fetch(space, SRC, DST, frames[1:])
    assert nodes.delta(machine, mark)[DST]["pulled"] == len(frames)
    assert nodes.delta(machine, nodes.mark(machine)) == {}
