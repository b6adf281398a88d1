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

    def run_master_workers(
        self,
        worker_cycles,
        input_bytes,
        output_bytes,
        master_pre=50_000,
        master_post=50_000,
        tree=False,
    ):
        """Simulate one distributed job; returns the makespan.

        Parameters
        ----------
        worker_cycles:
            Compute cycles per worker (one worker per node).
        input_bytes / output_bytes:
            Payload shipped to / from each worker over TCP.
        tree:
            Distribute recursively through a binary tree of workers
            instead of serially from the master (matches the -tree
            benchmark variants).
        """
        cost = self.cost
        trace = self.trace
        trace.begin("master", node=0, label="master")
        trace.charge("master", master_pre)

        ends = self._distribute(
            "master", 0, list(range(self.nnodes)), worker_cycles,
            input_bytes, output_bytes,
        )
        for end_seg, latency in ends:
            _, opened = trace.cut("master", label="collect")
            trace.edge(end_seg, opened, latency=latency)
            trace.charge("master", cost.message(output_bytes, tcp=True))
        trace.charge("master", master_post)
        trace.finish()
        return schedule(trace, ncpus=1).makespan

    def _distribute(self, parent_uid, parent_node, nodes, worker_cycles,
                    input_bytes, output_bytes):
        """Send work to ``nodes``; returns [(end_segment, return_latency)].

        Serial fan-out from the parent, or recursive binary-tree fan-out
        when more than one node remains (tree mode is selected simply by
        calling with the full node list — the recursion *is* the tree).
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

    def run_serial_circuit(self, worker_cycles, input_bytes, output_bytes,
                           master_pre=50_000):
        """Master serially visits every node, rsh-style (md5-circuit-like
        comparison point); returns the makespan."""
        cost = self.cost
        trace = self.trace
        trace.begin("master", node=0, label="master")
        trace.charge("master", master_pre)
        handles = []
        for node in range(self.nnodes):
            trace.charge("master", cost.message(input_bytes, tcp=True))
            closed, _ = trace.cut("master", label="send")
            uid = self._next_uid()
            seg = trace.begin(uid, node=node, label="worker")
            latency = 0 if node == 0 else cost.net_latency
            trace.edge(closed, seg, latency=latency)
            trace.charge(uid, worker_cycles)
            handles.append((trace.end(uid), latency))
        for end_seg, latency in handles:
            _, opened = trace.cut("master", label="collect")
            trace.edge(end_seg, opened, latency=latency)
            trace.charge("master", cost.message(output_bytes, tcp=True))
        trace.finish()
        return schedule(trace, ncpus=1).makespan
