"""Deterministic virtual-time model.

The paper reports wall-clock results on a 12-core Opteron and a 32-node
cluster.  We cannot measure those machines, so the reproduction separates
*logical execution* (always sequential and deterministic — correct because
Determinator spaces are shared-nothing and synchronize only by rendezvous)
from *timing*: logical execution records a DAG of execution ``segments``
connected by precedence ``edges``, and a deterministic list scheduler
computes the makespan that N CPUs per node would achieve.

All benchmark figures in :mod:`repro.bench` are ratios of such makespans.
"""

from repro.timing.model import CostModel
from repro.timing.trace import Trace
from repro.timing.schedule import schedule, ScheduleResult

__all__ = ["CostModel", "Trace", "schedule", "ScheduleResult"]
