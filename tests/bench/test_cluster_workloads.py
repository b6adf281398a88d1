"""Direct tests for the distributed benchmark implementations (§6.3)."""

import hashlib


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
