"""Distributed-memory "Linux equivalents" for Figure 12 (paper §6.3).

The paper compares Determinator's transparently distributed shared-memory
benchmarks against hand-written distributed-memory versions on Linux:

* the md5 equivalent coordinates workers with remote shells — tiny
  inputs/outputs per worker, TCP handshake per node;
* the matmult equivalent passes matrix data explicitly via TCP.

This module models exactly that structure over the same network cost
model the Determinator cluster uses, with TCP overheads always on.
"""

from repro.timing.model import CostModel
from repro.timing.schedule import schedule
from repro.timing.trace import Trace

#: Master-side setup and collection work around one job, in cycles.
MASTER_CYCLES = 50_000


class DistLinux:
    """Master/worker distributed-memory execution on an N-node cluster."""

    def __init__(self, cost=None, nnodes=2):
        self.cost = cost or CostModel()
        self.nnodes = nnodes
        self.trace = Trace()
        self._uid = 0

    def _next_uid(self):
        self._uid += 1
        return f"w{self._uid}"

    def run_master_workers(self, worker_cycles, input_bytes, output_bytes):
        """Simulate one distributed job; returns the makespan.

        Parameters
        ----------
        worker_cycles:
            Compute cycles per worker (one worker per node).
        input_bytes / output_bytes:
            Payload shipped to / from each worker over TCP.

        Work fans out recursively through a binary tree of workers (the
        -tree benchmark variants); the master spends
        :data:`MASTER_CYCLES` before and after it.
        """
        cost = self.cost
        trace = self.trace
        trace.begin("master", node=0, label="master")
        trace.charge("master", MASTER_CYCLES)

        ends = self._distribute(
            "master", 0, list(range(self.nnodes)), worker_cycles,
            input_bytes, output_bytes,
        )
        for end_seg, latency in ends:
            _, opened = trace.cut("master", label="collect")
            trace.edge(end_seg, opened, latency=latency)
            trace.charge("master", cost.message(output_bytes, tcp=True))
        trace.charge("master", MASTER_CYCLES)
        trace.finish()
        return schedule(trace, ncpus=1).makespan

    def _distribute(self, parent_uid, parent_node, nodes, worker_cycles,
                    input_bytes, output_bytes):
        """Send work to ``nodes``; returns [(end_segment, return_latency)].

        The first node works locally and forwards half of the rest to
        each of two sub-trees: the recursion *is* the tree.
        """
        cost = self.cost
        trace = self.trace
        ends = []
        me, rest = nodes[0], nodes[1:]
        # Local worker on this node.
        uid = self._next_uid()
        if parent_node == me:
            send_latency = 0
            trace.charge(parent_uid, cost.syscall)
        else:
            send_latency = cost.net_latency
            trace.charge(parent_uid, cost.message(input_bytes, tcp=True))
        closed, _ = trace.cut(parent_uid, label="send")
        seg = trace.begin(uid, node=me, label="worker")
        trace.edge(closed, seg, latency=send_latency)
        # The worker forwards to half of the remaining nodes (tree) —
        # with an empty rest this is a plain leaf.
        if rest:
            left = rest[: len(rest) // 2]
            right = rest[len(rest) // 2 :]
            for group in (left, right):
                if group:
                    ends.extend(
                        self._distribute(uid, me, group, worker_cycles,
                                         input_bytes, output_bytes)
                    )
        trace.charge(uid, worker_cycles)
        end_seg = trace.end(uid)
        ends.append((end_seg, 0 if parent_node == me else cost.net_latency))
        return ends
