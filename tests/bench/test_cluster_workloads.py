"""Direct tests for the distributed benchmark implementations (§6.3)."""

import hashlib

import pytest

from repro import ClusterSpec
from repro.bench import cluster_workloads as cw
from repro.bench.workloads.matmult import expected_checksum


def test_md5_circuit_finds_target_any_size():
    main = cw.md5_circuit_main(3)
    values = set()
    for nodes in (1, 3, 5):
        _, _, value = cw.run_cluster(main, nodes)
        values.add(value)
    assert len(values) == 1
    target = values.pop()
    length, digest = cw._md5_params(3)
    assert hashlib.md5(target.encode()).hexdigest() == digest


def test_md5_tree_matches_circuit_result():
    _, _, circuit = cw.run_cluster(cw.md5_circuit_main(3), 4)
    _, _, tree = cw.run_cluster(cw.md5_tree_main(3), 4)
    assert circuit == tree


def test_matmult_tree_correct_on_all_sizes():
    main = cw.matmult_tree_main(n=64, seed=7)
    reference = expected_checksum(64, 7)
    for nodes in (1, 2, 4):
        _, _, value = cw.run_cluster(main, nodes)
        assert value == reference


def test_odd_node_counts_handled():
    """Non-power-of-two trees must still cover the whole search space."""
    main = cw.md5_tree_main(3)
    _, _, v3 = cw.run_cluster(main, 3)
    _, _, v7 = cw.run_cluster(main, 7)
    _, _, v1 = cw.run_cluster(main, 1)
    assert v3 == v7 == v1


def test_cluster_benchmarks_charge_network_traffic():
    _, machine, _ = cw.run_cluster(cw.matmult_tree_main(n=64), 4)
    assert machine.pages_fetched > 0


def test_tcp_mode_increases_time_slightly():
    plain, _, _ = cw.run_cluster(cw.matmult_tree_main(n=64), 4)
    tcp, _, _ = cw.run_cluster(cw.matmult_tree_main(n=64), 4,
                               spec=ClusterSpec(tcp_mode=True))
    assert plain < tcp < plain * 1.02


# A child's fault reaches its parent at the join (§2–3), and loss is
# cost-only: a drop schedule that kills a message fails the run loudly
# and never changes the value it returns.  In the trees a *child*
# exhausts its retransmissions first; the circuit's children send no
# message of their own (only the travelling root does), so there the
# root's fault is the one to surface.  The seed is one under which a
# message of each shape that a space stalls on dies (drops key on the
# sending space); an ACK stalls nobody, so its death fails nothing.
LOSSY = {"drop": 0.7, "seed": 2018}
#: A seed under which only ACKs die on each shape.
ACKS_LOST = {"drop": 0.7, "seed": 2015}


@pytest.mark.parametrize("main, fault", [
    (cw.md5_tree_main(2), "EXC ThreadFault: .*NetworkLossError"),
    (cw.matmult_tree_main(64), "EXC ThreadFault: .*NetworkLossError"),
    (cw.md5_circuit_main(2), "EXC NetworkLossError"),
], ids=["md5-tree", "matmult-tree", "md5-circuit"])
def test_a_lost_message_fails_the_run_loud(main, fault):
    with pytest.raises(RuntimeError,
                       match=f"^cluster program faulted: {fault}"):
        cw.run_cluster(main, 4, spec=ClusterSpec(loss=LOSSY))


@pytest.mark.parametrize("main", [
    cw.md5_tree_main(2), cw.matmult_tree_main(64), cw.md5_circuit_main(2),
], ids=["md5-tree", "matmult-tree", "md5-circuit"])
def test_a_lost_ack_fails_nothing(main):
    _, machine, value = cw.run_cluster(main, 4,
                                       spec=ClusterSpec(loss=ACKS_LOST))
    assert value == cw.run_cluster(main, 4)[2]
    assert machine.transport.conservation_ok()
