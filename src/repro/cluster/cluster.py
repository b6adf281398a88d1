"""High-level cluster runner."""

from repro.cluster.spec import NODE_CPUS, ClusterSpec
from repro.kernel.machine import Machine


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

    def run(self, entry, args=()):
        """Run ``entry(g, *args)`` as the root program; returns its
        :class:`~repro.kernel.machine.MachineResult`, scheduled on
        :data:`~repro.cluster.spec.NODE_CPUS`.  Raises if the program
        faults."""
        with Machine(nnodes=self.nnodes, spec=self.spec) as machine:
            return machine.run(entry, args, ncpus=NODE_CPUS) \
                .check("cluster program")


def sweep_nodes(entry_builder, node_counts, spec=None):
    """Run ``entry_builder(nnodes)``'s program across cluster sizes.

    Returns ``{nnodes: (speedup_vs_first, MachineResult)}``.  Every size
    must compute the same value — distribution is semantically
    transparent (§3.3), and a ``loss`` schedule must never break it
    (faults are cost-only).  One
    :class:`~repro.cluster.spec.ClusterSpec` applies to *every* size, so
    sweeps compare like with like; each size builds its own fabric from
    the ``topology`` preset.
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
        if result.value != base_value:
            raise AssertionError(
                f"value drift at {nnodes} nodes: "
                f"{result.value!r} != {base_value!r}"
            )
        series[nnodes] = (base_time / time if time else 1.0, result)
    return series
