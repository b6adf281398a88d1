"""Distributed-memory baseline tests."""


from repro.baseline.distsim import DistLinux


def test_tree_distribution_scales():
    work = 200_000_000
    times = {}
    for n in (1, 4, 16):
        dist = DistLinux(nnodes=n)
        times[n] = dist.run_master_workers(
            worker_cycles=work // n, input_bytes=2000, output_bytes=2000,
        )
    assert times[4] < times[1]
    assert times[16] < times[4]


def test_data_heavy_job_dominated_by_transfer():
    """Shipping large matrices erases the benefit of more nodes."""
    work = 50_000_000
    big = 4 * 1024 * 1024   # 4 MB each way
    t2 = DistLinux(nnodes=2).run_master_workers(
        worker_cycles=work // 2, input_bytes=big, output_bytes=big,
    )
    t8 = DistLinux(nnodes=8).run_master_workers(
        worker_cycles=work // 8, input_bytes=big, output_bytes=big,
    )
    # The inputs fan out through the tree, but every worker's output
    # comes back to the master one message at a time: more nodes stop
    # helping.
    assert t8 > 0.6 * t2


def test_deterministic():
    args = dict(worker_cycles=1_000_000, input_bytes=500, output_bytes=500)
    a = DistLinux(nnodes=4).run_master_workers(**args)
    b = DistLinux(nnodes=4).run_master_workers(**args)
    assert a == b
