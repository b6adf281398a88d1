"""High-level cluster runner."""

from repro.cluster.network import NetworkStats
from repro.cluster.spec import ClusterSpec
from repro.kernel.machine import Machine


class ClusterResult:
    """Outcome of a :meth:`Cluster.run`."""

    def __init__(self, machine, result, nnodes, cpus_per_node):
        self.machine = machine
        self.result = result
        self.nnodes = nnodes
        if machine.cpus_per_node != cpus_per_node:
            raise AssertionError(
                f"cpus_per_node disagreement: machine ran under "
                f"{machine.cpus_per_node}, result asked to schedule on "
                f"{cpus_per_node} — configure it on the ClusterSpec")
        self._cpus = {node: cpus_per_node for node in range(nnodes)}
        #: The root program's return value.
        self.value = result.r0
        #: Network traffic accounting.
        self.network = NetworkStats(machine)

    def makespan(self):
        """Virtual completion time with the cluster's CPU configuration."""
        return self.result.makespan(cpus_per_node=self._cpus)

    def __repr__(self):
        return (
            f"<ClusterResult nodes={self.nnodes} "
            f"makespan={self.makespan():,} value={self.value!r}>"
        )


class Cluster:
    """A homogeneous cluster of ``nnodes`` machines (paper §3.3, §6.3).

    >>> cluster = Cluster(nnodes=8)                     # doctest: +SKIP
    >>> result = cluster.run(my_distributed_program)
    >>> result.makespan(), result.network.summary()
    """

    def __init__(self, nnodes, spec=None):
        self.nnodes = nnodes
        #: The validated :class:`~repro.cluster.spec.ClusterSpec` every
        #: machine this cluster builds will run under.
        self.spec = spec if spec is not None else ClusterSpec()

    @property
    def cpus_per_node(self):
        return self.spec.cpus_per_node

    def run(self, entry, args=()):
        """Run ``entry(g, *args)`` as the root program; returns a
        :class:`ClusterResult`.  Raises if the program faults."""
        machine = Machine(nnodes=self.nnodes, spec=self.spec)
        with machine:
            result = machine.run(entry, args)
            if result.trap.name not in ("EXIT", "RET"):
                raise RuntimeError(
                    f"cluster program faulted: {result.trap.name} "
                    f"{result.trap_info}"
                )
            return ClusterResult(machine, result, self.nnodes,
                                 self.spec.cpus_per_node)


def sweep_nodes(entry_builder, node_counts, spec=None, check_value=True):
    """Run ``entry_builder(nnodes)``'s program across cluster sizes.

    Returns ``{nnodes: (speedup_vs_first, ClusterResult)}``.  With
    ``check_value`` (default) every size must compute the same value —
    distribution is semantically transparent (§3.3), and a ``loss``
    schedule must never break it (faults are cost-only).  One
    :class:`~repro.cluster.spec.ClusterSpec` applies to *every* size, so
    sweeps compare like with like; give its ``topology`` as a preset
    string or an ``nnodes -> Topology`` builder, since each size gets
    its own fabric.
    """
    series = {}
    base_time = None
    base_value = None
    for nnodes in node_counts:
        cluster = Cluster(nnodes, spec=spec)
        result = cluster.run(entry_builder(nnodes))
        time = result.makespan()
        if base_time is None:
            base_time, base_value = time, result.value
        if check_value and result.value != base_value:
            raise AssertionError(
                f"value drift at {nnodes} nodes: "
                f"{result.value!r} != {base_value!r}"
            )
        series[nnodes] = (base_time / time if time else 1.0, result)
    return series
