"""Workload correctness on both backends, at test-friendly sizes."""

import numpy as np
import pytest

from repro.bench.harness import run_determinator, run_linux
from repro.bench.workloads import (
    ALL,
    blackscholes_workload,
    matmult_workload,
)

SMALL = {
    "md5": {"length": 3, "rounds": 4},
    "matmult": {"n": 64},
    "qsort": {"n": 1 << 12},
    "blackscholes": {"noptions": 1 << 12, "quantum": 500_000},
    "fft": {"n": 1 << 10},
    "lu_cont": {"n": 64, "block": 16},
    "lu_noncont": {"n": 64, "block": 16},
}


def small_params(name, nworkers):
    """Overrides go through default_params so derived values (digest,
    fork depth) stay consistent with the overridden sizes."""
    mod, extra = ALL[name]
    kwargs = dict(SMALL[name])
    kwargs.update(extra)
    return mod, mod.default_params(nworkers, **kwargs)


@pytest.mark.parametrize("name", sorted(ALL))
def test_results_identical_on_both_backends(name):
    mod, params = small_params(name, 4)
    det = run_determinator(mod, params)
    lin = run_linux(mod, params, ncpus=4)
    assert det.value == lin.value


@pytest.mark.parametrize("name", sorted(ALL))
def test_determinator_run_is_repeatable(name):
    mod, params = small_params(name, 3)
    a = run_determinator(mod, params)
    b = run_determinator(mod, params)
    assert a.value == b.value
    assert a.makespan(4) == b.makespan(4)


def test_md5_finds_planted_password():
    import hashlib
    mod, params = small_params("md5", 2)
    det = run_determinator(mod, params)
    assert hashlib.md5(det.value.encode()).hexdigest() == params["digest"]


def test_matmult_checksum_matches_reference():
    mod, params = small_params("matmult", 4)
    det = run_determinator(mod, params)
    assert det.value == matmult_workload.expected_checksum(
        params["n"], params["seed"]
    )


class _FlatMemory:
    """The three guest calls ``_multiply_block`` makes, over one buffer
    that starts at matmult's A."""

    def __init__(self, n):
        self.mem = bytearray(matmult_workload._addrs(n)[2] + 4 * n * n
                             - matmult_workload.A_ADDR)

    def array_read(self, addr, dtype, count):
        offset = addr - matmult_workload.A_ADDR
        return np.frombuffer(self.mem, dtype, count, offset).copy()

    def array_write(self, addr, arr):
        data = np.ascontiguousarray(arr).tobytes()
        offset = addr - matmult_workload.A_ADDR
        self.mem[offset:offset + len(data)] = data

    def work(self, instructions):
        pass


def _block_product(a, b):
    """C = A @ B through ``_multiply_block``, in two row blocks."""
    n = len(a)
    api = _FlatMemory(n)
    a_addr, b_addr, c_addr = matmult_workload._addrs(n)
    api.array_write(a_addr, a)
    api.array_write(b_addr, b)
    half = n // 2
    for row0, rows in ((0, half), (half, n - half)):
        assert matmult_workload._multiply_block(api, 0, n, row0, rows) == rows
    return api.array_read(c_addr, np.int32, n * n).reshape(n, n)


def _bound_case():
    """n * max|A| * max|B| == 2**24 exactly: the largest sgemm product."""
    rng = np.random.default_rng(1)
    a = rng.integers(-2048, 2049, size=(64, 64), dtype=np.int32)
    b = rng.integers(-128, 129, size=(64, 64), dtype=np.int32)
    a[0, 0], b[0, 0] = 2048, -128
    assert 64 * 2048 * 128 == 2**24
    return a, b


def _negative_case():
    rng = np.random.default_rng(2)
    return (rng.integers(-100, 100, size=(48, 48), dtype=np.int32),
            rng.integers(-100, 100, size=(48, 48), dtype=np.int32))


def _input_past_bound_case():
    """B holds 2**24 + 1, which float32 rounds to 2**24."""
    a = np.eye(4, dtype=np.int32)
    b = np.full((4, 4), 2**24 + 1, dtype=np.int32)
    return a, b


def _product_past_bound_case():
    """Every entry and every pairwise product is float32-exact, but each
    sum of three, -3 * 2365**2 = -(2**24 + 2459), is odd: sgemm rounds
    it.  A's magnitude is all in its sign."""
    b = np.full((3, 3), 2365, dtype=np.int32)
    return -b, b


@pytest.mark.parametrize("case", [_bound_case, _negative_case,
                                  _input_past_bound_case,
                                  _product_past_bound_case])
def test_multiply_block_is_exact(case):
    """The guest product is the int32 reference product, on the sgemm
    path up to its bound and on the int32 path past it."""
    a, b = case()
    assert np.array_equal(_block_product(a, b), a @ b)


def test_qsort_output_sorted():
    mod, params = small_params("qsort", 4)
    det = run_determinator(mod, params)
    sorted_flag, _checksum = det.value
    assert sorted_flag


def test_blackscholes_checksum_matches_reference():
    mod, params = small_params("blackscholes", 4)
    det = run_determinator(mod, params)
    assert det.value == blackscholes_workload.expected_checksum(
        params["noptions"], params["seed"]
    )


def test_fft_verified_against_numpy():
    mod, params = small_params("fft", 4)
    det = run_determinator(mod, params)
    verified, _ = det.value
    assert verified


@pytest.mark.parametrize("contiguous", [True, False])
def test_lu_factors_correctly(contiguous):
    name = "lu_cont" if contiguous else "lu_noncont"
    mod, params = small_params(name, 4)
    det = run_determinator(mod, params)
    verified, _ = det.value
    assert verified


def test_lu_noncont_costs_more_merging_than_cont():
    _, params_c = small_params("lu_cont", 4)
    _, params_n = small_params("lu_noncont", 4)
    mod, _ = ALL["lu_cont"]
    det_c = run_determinator(mod, params_c)
    det_n = run_determinator(mod, params_n)
    diffed_c = sum(s.pages_diffed for s in det_c.machine.merge_stats_total)
    diffed_n = sum(s.pages_diffed for s in det_n.machine.merge_stats_total)
    assert diffed_n >= diffed_c


def test_fine_grained_pays_more_than_coarse():
    """lu (fine-grained) must show a worse Linux ratio than matmult."""
    mod_m, params_m = small_params("matmult", 4)
    mod_l, params_l = small_params("lu_cont", 4)
    ratio_m = (run_linux(mod_m, params_m, 4).makespan()
               / run_determinator(mod_m, params_m).makespan(4))
    ratio_l = (run_linux(mod_l, params_l, 4).makespan()
               / run_determinator(mod_l, params_l).makespan(4))
    assert ratio_l < ratio_m


def test_md5_beats_linux_at_high_core_counts():
    mod, _ = ALL["md5"]
    # Fewer rounds -> more compute per fork, as at figure scale.
    params = mod.default_params(12, length=3, rounds=2)
    det = run_determinator(mod, params)
    lin = run_linux(mod, params, ncpus=12)
    assert lin.makespan() / det.makespan(12) > 1.3
