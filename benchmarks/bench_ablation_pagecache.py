"""Ablation: the cluster's read-only page cache (paper §3.3).

"For pages that the migrating space only reads and never writes, such
as program code, each kernel reuses cached copies of these pages
whenever the space returns to that node."

Measured by running the md5-tree cluster benchmark normally and with an
(artificially) cold cache on every access, via a cost model whose
fetches are never absorbed — implemented by zeroing the cache between
rounds through a fresh machine per round and comparing fetch counts.
"""

from repro.bench import cluster_workloads as cw
from repro.kernel.machine import Machine


def _run_tree(nodes, disable_cache):
    machine = Machine(nnodes=nodes)
    if disable_cache:
        # A cache that forgets everything: discard on every insertion.
        class _ColdCache(dict):
            def __setitem__(self, key, value):
                pass

            def get(self, key, default=None):
                return default

        for node in range(nodes):
            machine.node_cache[node] = _ColdCache()
    main = cw.matmult_tree_main(256)

    def entry(g):
        return main(g, nodes)

    with machine:
        result = machine.run(entry)
        assert result.trap.name in ("EXIT", "RET"), result.trap_info
        return result.makespan(ncpus=1), machine.pages_fetched


def test_ablation_readonly_page_cache():
    def compare():
        warm_time, warm_fetches = _run_tree(8, disable_cache=False)
        cold_time, cold_fetches = _run_tree(8, disable_cache=True)
        return warm_time, warm_fetches, cold_time, cold_fetches

    warm_time, warm_fetches, cold_time, cold_fetches = compare()
    print()
    print("Read-only page cache ablation (matmult-tree, 8 nodes):")
    print(f"  cache on : time={warm_time:>14,} fetches={warm_fetches:,}")
    print(f"  cache off: time={cold_time:>14,} fetches={cold_fetches:,}")
    assert cold_fetches > warm_fetches
    assert cold_time >= warm_time
