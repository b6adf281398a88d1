"""ClusterSpec: one knob vocabulary, one validation site, one spelling.

Every entry point — ``Machine``, ``sweep_nodes``, ``run_cluster``,
``serve_trace``, ``run_backend`` —
accepts configuration only as ``spec=ClusterSpec(...)``.  These tests
pin the contract: a bad field value raises at spec construction, a
mistyped or stray knob keyword is Python's own ``TypeError`` at every
entry point, the spec is a frozen value, and a signature guard fails
the moment any entry point re-grows a knob parameter or a ``**knobs``
catch-all.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro import ClusterSpec, Machine
from repro.bench import cluster_workloads as cw
from repro.bench.harness import run_determinator
from repro.cluster.backend import run_backend
from repro.cluster.faults import LossSchedule
from repro.cluster.placement import locality
from repro.cluster.serving import serve_trace
from repro.cluster.topology import FatTreeTopology
from repro.timing.model import CostModel


# -- value semantics --------------------------------------------------------

def test_with_copies_and_revalidates():
    base = ClusterSpec(topology="two_tier:2")
    derived = base.with_(ship_mode="demand", compression=True)
    assert base.ship_mode == "delta" and not base.compression
    assert derived.topology == "two_tier:2"
    assert derived.ship_mode == "demand" and derived.compression
    with pytest.raises(ValueError, match="ship_mode"):
        base.with_(ship_mode="bogus")


def test_spec_is_frozen():
    with pytest.raises(Exception):
        ClusterSpec().ship_mode = "full"


# -- one validation site ----------------------------------------------------

@pytest.mark.parametrize("bad, match", [
    (dict(ship_mode="bogus"), "ship_mode"),
    (dict(prefetch_depth=-1), "prefetch_depth"),
    (dict(backend="bogus"), "backend"),
    (dict(shard_workers=-1), "shard_workers"),
    (dict(cost=object()), "cost"),
    (dict(topology="two_tier:x"), "topology"),
    (dict(prefetch_depth="bogus"), "prefetch_depth"),
    (dict(placement="bogus"), "placement"),
    (dict(loss="bogus"), "loss"),
    (dict(tcp_mode="no"), "tcp_mode"),
    (dict(compression=1), "compression"),
])
def test_validation_is_centralized(bad, match):
    """A bad field value never reaches an entry point: constructing the
    spec is the one place it can be said, and it raises there."""
    with pytest.raises(ValueError, match=match):
        ClusterSpec(**bad)
    with pytest.raises(ValueError, match=match):
        ClusterSpec().with_(**bad)


@pytest.mark.parametrize("name", ["prefetch_depth", "shard_workers"])
def test_an_int_field_refuses_a_bool(name):
    """``True`` is an ``int`` to Python, never a depth or a worker
    count to the spec (the int twin of ``tcp_mode="no"``)."""
    for flag in (True, False):
        with pytest.raises(ValueError, match=name):
            ClusterSpec(**{name: flag})


@pytest.mark.parametrize("topology", [
    "bogus", "two_tier:x", "two_tier:-2", "flat:2", "fat_tree:0", 3.5,
    "two_tier:", "flat:"])
def test_a_bad_topology_is_refused_by_the_spec(topology):
    """Preset names and rack sizes are spec syntax: refused at the spec
    with a message naming the topology, never first at ``Machine()``."""
    with pytest.raises(ValueError, match="topology"):
        ClusterSpec(topology=topology)


@pytest.mark.parametrize("field, value", [
    ("topology", FatTreeTopology(4)),
    ("topology", FatTreeTopology),
    ("topology", lambda nnodes: FatTreeTopology(nnodes)),
    ("placement", locality),
    ("placement", "identity"),
    ("loss", LossSchedule(drop=0.1)),
    ("prefetch_depth", "adaptive"),
], ids=["topology-instance", "topology-class", "topology-builder",
        "placement-function", "placement-identity", "loss-schedule",
        "prefetch-adaptive"])
def test_a_live_object_is_refused_naming_its_field(field, value):
    """Every field is a plain value — a preset, a policy name, a rate
    or a small dict: a live object (or a test-only name) is refused at
    the spec, naming the field, before any machine exists."""
    with pytest.raises(ValueError, match=field):
        ClusterSpec(**{field: value})


def test_unknown_knob_raises_the_same_typeerror_everywhere():
    for build in (lambda: ClusterSpec(ship_moed="delta"),
                  lambda: Machine(nnodes=2, ship_moed="delta"),
                  lambda: cw.sweep_nodes(cw.md5_tree_main(3), (1,),
                                         ship_moed="delta"),
                  lambda: cw.run_cluster(cw.md5_tree_main(3), 2,
                                         ship_moed="delta"),
                  lambda: serve_trace(2, requests=2, ship_moed="delta"),
                  lambda: run_backend(cw.md5_tree_main(3), 2,
                                      ship_moed="delta")):
        with pytest.raises(TypeError, match="ship_moed"):
            build()


def test_spec_plus_legacy_knobs_is_refused():
    """A correctly spelled knob keyword is refused too — beside a spec
    or on its own — and ``spec=`` takes a ClusterSpec, not a dict."""
    spec = ClusterSpec()
    with pytest.raises(TypeError, match="ship_mode"):
        Machine(nnodes=2, spec=spec, ship_mode="demand")
    with pytest.raises(TypeError, match="loss"):
        cw.run_cluster(cw.md5_tree_main(3), 2, loss=0.01)
    with pytest.raises(TypeError, match="ClusterSpec"):
        Machine(nnodes=2, spec={"ship_mode": "demand"})
    assert Machine(nnodes=2, spec=spec).spec is spec
    assert Machine().spec == ClusterSpec()


def test_machine_keeps_no_copy_of_a_spec_field():
    """The spec is the one copy of every knob: the only ``Machine``
    attributes named after a ``ClusterSpec`` field are the four
    per-machine objects resolved from it, and the spec has no resolver
    methods of its own (``Machine`` calls the module resolvers)."""
    fields = {f.name for f in dataclasses.fields(ClusterSpec)}
    spec = ClusterSpec(topology="two_tier:2", loss=0.01, prefetch_depth=8)
    with Machine(nnodes=4, spec=spec) as machine:
        assert set(vars(machine)) & fields == {
            "cost", "loss", "topology", "placement"}
    assert not [name for name in vars(ClusterSpec)
                if name.startswith("resolve")]


# -- the signature guard ----------------------------------------------------

ENTRY_POINTS = [Machine.__init__, cw.sweep_nodes, cw.run_cluster,
                serve_trace, run_backend]


@pytest.mark.parametrize("entry", ENTRY_POINTS,
                         ids=lambda f: f.__qualname__)
def test_entry_points_never_regrow_knob_parameters(entry):
    """The ratchet: configuration knobs live on ClusterSpec only.  If
    any entry point re-grows an explicit ``ship_mode=`` / ``loss=`` /
    ... parameter, or a ``**knobs`` catch-all to smuggle them through,
    the signatures start diverging again and this test fails naming
    the offender."""
    params = inspect.signature(entry).parameters
    assert "spec" in params, entry.__qualname__
    assert not any(p.kind is inspect.Parameter.VAR_KEYWORD
                   for p in params.values()), entry.__qualname__
    fields = {f.name for f in dataclasses.fields(ClusterSpec)}
    regrown = set(params) & fields
    assert not regrown, (
        f"{entry.__qualname__} re-grew knob parameter(s) {sorted(regrown)}; "
        f"add fields to ClusterSpec instead")


def test_twelve_knobs_and_a_knobless_harness():
    """Neither the dirty ledger nor the CPU count is a knob of its own:
    the spec has exactly ten fields (``cpus_per_node`` is the constant
    ``NODE_CPUS`` now), and ``run_determinator`` —
    the entry point the guard above cannot cover, having no ``spec=`` —
    configures nothing at all."""
    assert len(dataclasses.fields(ClusterSpec)) == 10
    with pytest.raises(TypeError, match="cpus_per_node"):
        ClusterSpec(cpus_per_node=1)
    with pytest.raises(TypeError, match="dirty_tracking"):
        ClusterSpec(dirty_tracking=True)
    assert list(inspect.signature(run_determinator).parameters) == \
        ["workload", "params"]


# -- docs/knobs.md ------------------------------------------------------------

KNOBS = Path(__file__).resolve().parents[2] / "docs" / "knobs.md"


def _section(text, heading):
    """The guide's text under ``heading`` up to the next ``## ``."""
    return text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def _first_cells(section):
    """The backticked names of each table row's first cell, in order
    (``| `a` / `b` |`` names two)."""
    return [name for row in re.findall(r"^\| (.+?) \|", section, re.M)
            for name in re.findall(r"`(\w+)`", row)]


def test_knobs_doc_lists_the_spec_fields_in_declaration_order():
    section = _section(KNOBS.read_text(), "## `ClusterSpec` knobs")
    assert _first_cells(section) == [
        field.name for field in dataclasses.fields(ClusterSpec)]


def test_knobs_doc_prices_every_cost_field_once():
    section = _section(KNOBS.read_text(), "## `CostModel` prices")
    assert sorted(_first_cells(section)) == sorted(
        field.name for field in dataclasses.fields(CostModel))
