"""Single-call benchmark runners for both systems.

Determinator runs record a trace independent of CPU count: one run
yields makespans for any number of CPUs.  Baseline runs embed the
contention model, which depends on the core count, so the harness runs
the baseline once per CPU configuration.
"""

from repro.baseline.threadsim import LinuxMachine
from repro.bench.api import DetApi, LinuxApi
from repro.kernel.machine import Machine


class RunResult:
    """Uniform result wrapper for either backend."""

    def __init__(self, kind, value, makespan_fn, machine):
        self.kind = kind
        #: The workload's return value (checksums/verification flags).
        self.value = value
        self._makespan = makespan_fn
        #: The underlying Machine or LinuxMachine (for counters).
        self.machine = machine

    def makespan(self, ncpus=None, cpus_per_node=None):
        """Virtual completion time."""
        return self._makespan(ncpus, cpus_per_node)

    def __repr__(self):
        return f"<RunResult {self.kind} value={self.value!r}>"


def run_determinator(workload, params):
    """Run ``workload.run(api, **params)`` on a Determinator machine."""
    machine = Machine()

    def main(g):
        return workload.run(DetApi(g), **params)

    with machine:
        result = machine.run(main)
        if result.trap.name not in ("EXIT", "RET"):
            raise RuntimeError(
                f"workload faulted on Determinator: {result.trap.name} "
                f"{result.trap_info}"
            )

        def makespan(ncpus=None, cpus_per_node=None):
            return result.makespan(ncpus=ncpus, cpus_per_node=cpus_per_node)

        return RunResult("determinator", result.r0, makespan, machine)


def run_linux(workload, params, ncpus, cost=None, seed=None):
    """Run ``workload.run(api, **params)`` on the Linux baseline with
    ``ncpus`` cores."""
    machine = LinuxMachine(cost=cost, ncpus=ncpus, seed=seed)

    def main(lt):
        return workload.run(LinuxApi(lt), **params)

    result = machine.run(main)

    def makespan(ncpus_=None, cpus_per_node=None):
        return result.makespan(ncpus=ncpus_ if ncpus_ is not None else ncpus)

    return RunResult("linux", result.value, makespan, machine)
