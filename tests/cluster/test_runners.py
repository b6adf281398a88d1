"""One contract over every runner: ``Machine.run(...).check()``,
``run_cluster``, ``run_backend``, ``run_determinator`` and
``serve_trace`` all hand back (or wrap) the run's ``MachineResult``, so
a faulting guest raises the same error from each and the same program
under the same spec reads the same value and makespan through any of
them."""

from types import SimpleNamespace

import pytest

from repro import ClusterSpec, Machine, run_backend, serve_trace
from repro.bench import cluster_workloads as cw
from repro.bench.harness import run_determinator
from repro.bench.workloads.serving import fold_checksum
from repro.cluster import NetworkStats
from repro.cluster.spec import NODE_CPUS
from repro.kernel.machine import MachineResult
from repro.timing.schedule import schedule

MD5_TREE = cw.md5_tree_main(3)


def _boom(g, *args):
    raise ValueError("boom")


def _machine_run():
    with Machine() as machine:
        return machine.run(_boom).check()


FAULTING = {
    "Machine.run.check": _machine_run,
    "run_cluster": lambda: cw.run_cluster(_boom, 2),
    "run_backend": lambda: run_backend(_boom, 2),
    "run_determinator": lambda: run_determinator(
        SimpleNamespace(run=_boom), {}),
}


@pytest.mark.parametrize("runner", FAULTING.values(), ids=FAULTING.keys())
def test_a_faulting_guest_raises_from_every_runner(runner):
    with pytest.raises(RuntimeError, match="faulted.*EXC.*boom"):
        runner()


BAD_NODE_COUNTS = {
    "run_cluster-0": lambda: cw.run_cluster(MD5_TREE, 0),
    "sweep_nodes-0": lambda: cw.sweep_nodes(MD5_TREE, (1, 0)),
    "Machine--1": lambda: Machine(nnodes=-1),
    "Machine-True": lambda: Machine(nnodes=True),
    "Machine-2.0": lambda: Machine(nnodes=2.0),
    "serve_trace-0": lambda: serve_trace(0, requests=2),
    "run_backend-real-0": lambda: run_backend(
        MD5_TREE, 0, ClusterSpec(backend="real")),
}


@pytest.mark.parametrize("runner", BAD_NODE_COUNTS.values(),
                         ids=BAD_NODE_COUNTS.keys())
def test_a_bad_node_count_is_refused_naming_it(runner):
    with pytest.raises(ValueError, match="nnodes must be an int >= 1"):
        runner()


def test_check_returns_the_result_of_a_clean_run():
    with Machine() as machine:
        result = machine.run(lambda g: 7)
        assert result.check() is result
        assert result.value == result.r0 == 7


@pytest.mark.parametrize("spec", [
    ClusterSpec(),
    ClusterSpec(topology="two_tier:2", ship_mode="full"),
], ids=["default", "two-tier-2-full"])
def test_same_program_and_spec_read_the_same_through_every_runner(spec):
    makespan, machine, value = cw.run_cluster(MD5_TREE, 4, spec)
    backend = run_backend(MD5_TREE, 4, spec)
    assert value == backend.value
    assert makespan == backend.makespan
    assert backend.result.ncpus == NODE_CPUS
    network = NetworkStats(machine)
    assert network.per_link == backend.network.per_link
    assert network.wire_bytes == machine.transport.bytes_total > 0


def test_a_serving_result_wraps_the_runs_machine_result():
    served = serve_trace(2, requests=4)
    assert isinstance(served.result, MachineResult)
    assert served.machine is served.result.machine
    assert served.checksum == served.result.value \
        == fold_checksum(served.values)
    # The run's own result schedules on the CPUs its latencies used.
    assert served.result.ncpus == NODE_CPUS == 1


def test_one_node_cluster_runs_schedule_on_node_cpus():
    # A bare Machine schedules on the cost model's 12 cores; a cluster
    # run on NODE_CPUS — also at one node, where only the committed
    # BENCH_*.json baselines used to notice the difference.  Any other
    # count is read off the same run.
    one_cpu, machine, _ = cw.run_cluster(MD5_TREE, 1)
    assert one_cpu == 15_888_910
    assert NODE_CPUS != machine.cost.ncpus
    assert schedule(machine.trace, ncpus=NODE_CPUS).makespan == one_cpu
    assert schedule(machine.trace, ncpus=2).makespan < one_cpu


def test_a_backend_result_schedules_its_makespan_once(monkeypatch):
    from repro.kernel import machine as machine_module
    backend = run_backend(MD5_TREE, 2)
    monkeypatch.setattr(machine_module, "schedule", None)   # any call raises
    assert backend.makespan == backend.makespan > 0
    assert f"makespan={backend.makespan} " in repr(backend)
