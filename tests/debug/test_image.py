"""An image is what its declarations say it is, and every reader of the
declarations notices every field.

The cases below are generated from ``repro.kernel.ledgers.LEDGERS``,
``SpaceImage.FIELDS`` and ``PageImage.__slots__``: perturb one field of
one of two otherwise identical frozen machines and equality, the digest
and ``first_difference`` must all tell them apart — the last by name.
A ledger row or an image field added later is covered without touching
this file.  (Before the readers were derived, ``SpaceImage.__eq__``
skipped ``insn_limit`` while ``image_digest`` fed it, and neither held
the node / pair rows, the trace or the merge log.)
"""

from enum import Enum

import pytest

from repro import Machine
from repro.cluster.backend import image_digest
from repro.debug import SpaceImage, first_difference, freeze_machine
from repro.debug.model import PageImage
from repro.kernel import child_ref
from repro.kernel.ledgers import LEDGERS
from repro.mem.layout import SHARED_BASE
from repro.mem.page import PAGE_SIZE


REF = child_ref(1, node=1)


def _child(g, k):
    g.debug(f"child {k}")
    g.write(SHARED_BASE, bytes([k]) * 8)
    return k


def _main(g, nnodes):
    # Moves a little of everything: console, debug log, a migration to
    # node 1 and back (links, pairs, page cache, placements), a Snap and
    # a Merge, a guest-visible clock read.
    g.console_write(b"hello\n")
    g.write(SHARED_BASE + PAGE_SIZE, b"root")
    g.put(REF, regs={"entry": _child, "args": (7,)},
          copy=(SHARED_BASE, PAGE_SIZE), snap=(SHARED_BASE, PAGE_SIZE),
          start=True)
    g.get(REF, merge=True)
    return g.time_now()


@pytest.fixture
def images():
    """Two independent images of one finished machine."""
    with Machine(nnodes=2) as machine:
        machine.run(_main, (2,)).check()
        return freeze_machine(machine), freeze_machine(machine)


def perturbed(value):
    """A value of ``value``'s own kind that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (str, tuple, list)):
        return value + type(value)("x")
    if isinstance(value, (bytes, bytearray)):
        return value + b"\x01"
    if isinstance(value, dict):
        return {**value, "perturbed": 0}
    if isinstance(value, Enum):
        return next(member for member in type(value) if member is not value)
    assert value is None, value
    return 0


def _get(holder, key):
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


def assert_every_reader_notices(images, path):
    """Perturb the field at ``path`` (attribute names and dict keys from
    the image down) of the first image only."""
    one, other = images
    assert one == other and first_difference(one, other) is None
    assert image_digest(one) == image_digest(other)
    *way, last = path
    holder = one
    for key in way:
        holder = _get(holder, key)
    value = perturbed(_get(holder, last))
    if isinstance(holder, dict):
        holder[last] = value
    else:
        setattr(holder, last, value)
    assert one != other
    assert image_digest(one) != image_digest(other)
    name = ""
    for key in path:
        name += f".{key}" if isinstance(key, str) else f"[{key!r}]"
    assert first_difference(one, other)[0].startswith(name[1:])


@pytest.mark.parametrize("owner,key", [
    (ledger.owner or "machine", ledger.key)
    for ledger in LEDGERS if ledger.key is not None])
def test_a_perturbed_ledger_is_noticed(images, owner, key):
    assert_every_reader_notices(images, ("run", owner, key))


@pytest.mark.parametrize("field", SpaceImage.FIELDS)
@pytest.mark.parametrize("where", [("root",), ("root", "children", REF)],
                         ids=["root", "child"])
def test_a_perturbed_space_field_is_noticed(images, where, field):
    assert_every_reader_notices(images, where + (field,))


@pytest.mark.parametrize("field", PageImage.__slots__)
def test_a_perturbed_page_field_is_noticed(images, field):
    vpn = min(images[0].root.pages)
    assert_every_reader_notices(images, ("root", "pages", vpn, field))


def test_first_difference_names_the_place_and_both_values(images):
    one, other = images
    one.run["trace"]["segments"][1] = \
        one.run["trace"]["segments"][1][:3] + (5,) + \
        one.run["trace"]["segments"][1][4:]
    name, ours, theirs = first_difference(one, other)
    assert name == "run.trace.segments[1][3]"
    assert (ours, theirs) == (5, other.run["trace"]["segments"][1][3])
    del other.run["transport"]["links"][(0, 1)]
    other.run["trace"]["segments"][1] = one.run["trace"]["segments"][1]
    name, ours, theirs = first_difference(one, other)
    assert name == "run.transport.links[(0, 1)]"
    assert ours["messages"] > 0 and theirs == "<absent>"
