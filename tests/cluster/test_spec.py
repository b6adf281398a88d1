"""ClusterSpec: one knob vocabulary, one validation site, one spelling.

Every entry point — ``Machine``, ``Cluster``, ``sweep_nodes``,
``run_cluster``, ``serve_trace``, ``run_backend``, ``run_real`` —
accepts configuration only as ``spec=ClusterSpec(...)``.  These tests
pin the contract: a bad field value raises at spec construction, a
mistyped or stray knob keyword is Python's own ``TypeError`` at every
entry point, the spec is a frozen value, and a signature guard fails
the moment any entry point re-grows a knob parameter or a ``**knobs``
catch-all.
"""

import dataclasses
import inspect

import pytest

from repro import Cluster, ClusterSpec, Machine, sweep_nodes
from repro.bench import cluster_workloads as cw
from repro.bench.harness import run_determinator
from repro.cluster.backend import run_backend, run_real
from repro.cluster.serving import serve_trace


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
])
def test_validation_is_centralized(bad, match):
    """A bad field value never reaches an entry point: constructing the
    spec is the one place it can be said, and it raises there."""
    with pytest.raises(ValueError, match=match):
        ClusterSpec(**bad)
    with pytest.raises(ValueError, match=match):
        ClusterSpec().with_(**bad)


def test_unknown_knob_raises_the_same_typeerror_everywhere():
    for build in (lambda: ClusterSpec(ship_moed="delta"),
                  lambda: Machine(nnodes=2, ship_moed="delta"),
                  lambda: Cluster(2, ship_moed="delta"),
                  lambda: sweep_nodes(cw.md5_tree_main, (1,),
                                      ship_moed="delta"),
                  lambda: cw.run_cluster(cw.md5_tree_main(3), 2,
                                         ship_moed="delta"),
                  lambda: serve_trace(2, requests=2, ship_moed="delta"),
                  lambda: run_backend(cw.md5_tree_main(3), 2,
                                      ship_moed="delta"),
                  lambda: run_real(cw.md5_tree_main(3), 2,
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
        Cluster(2, loss=0.01)
    with pytest.raises(TypeError, match="ClusterSpec"):
        Machine(nnodes=2, spec={"ship_mode": "demand"})
    assert Machine(nnodes=2, spec=spec).spec is spec
    assert Machine().spec == ClusterSpec()


def test_machine_keeps_no_copy_of_a_spec_field():
    """The spec is the one copy of every knob: the only ``Machine``
    attributes named after a ``ClusterSpec`` field are the five
    per-machine objects resolved from it, and the spec has no resolver
    methods of its own (``Machine`` calls the module resolvers)."""
    fields = {f.name for f in dataclasses.fields(ClusterSpec)}
    spec = ClusterSpec(topology="two_tier:2", loss=0.01, control="adaptive")
    with Machine(nnodes=4, spec=spec) as machine:
        assert set(vars(machine)) & fields == {
            "cost", "loss", "topology", "placement", "control"}
    assert not [name for name in vars(ClusterSpec)
                if name.startswith("resolve")]


# -- the signature guard ----------------------------------------------------

ENTRY_POINTS = [Machine.__init__, Cluster.__init__, sweep_nodes,
                cw.run_cluster, serve_trace, run_backend, run_real]


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
    """Neither the dirty ledger nor the CPU count is a knob: the spec
    has exactly eleven fields (the twelfth, ``cpus_per_node``, is the
    constant ``NODE_CPUS`` now), and ``run_determinator`` — the entry
    point the guard above cannot cover, having no ``spec=`` —
    configures nothing at all."""
    assert len(dataclasses.fields(ClusterSpec)) == 11
    with pytest.raises(TypeError, match="cpus_per_node"):
        ClusterSpec(cpus_per_node=1)
    with pytest.raises(TypeError, match="dirty_tracking"):
        ClusterSpec(dirty_tracking=True)
    assert list(inspect.signature(run_determinator).parameters) == \
        ["workload", "params"]
