"""Single-call benchmark runners for both systems.

Determinator runs record a trace independent of CPU count: one run
yields makespans for any number of CPUs.  Baseline runs embed the
contention model, which depends on the core count, so the harness runs
the baseline once per CPU configuration.
"""

from repro.bench.api import DetApi, LinuxApi
from repro.kernel.machine import Machine


def run_determinator(workload, params):
    """Run ``workload.run(api, **params)`` on a Determinator machine;
    returns its :class:`~repro.kernel.machine.MachineResult`."""
    def main(g):
        return workload.run(DetApi(g), **params)

    with Machine() as machine:
        return machine.run(main).check("workload on Determinator")


def run_linux(workload, params, ncpus, cost=None, seed=None):
    """Run ``workload.run(api, **params)`` on the Linux baseline with
    ``ncpus`` cores; returns its
    :class:`~repro.baseline.threadsim.LinuxResult`."""
    from repro.baseline.threadsim import LinuxMachine

    def main(lt):
        return workload.run(LinuxApi(lt), **params)

    return LinuxMachine(cost=cost, ncpus=ncpus, seed=seed).run(main)
