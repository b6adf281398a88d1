"""matmult: parallel dense integer matrix multiply (§6.2).

"matmult multiplies two 1024 x 1024 integer matrices."

One fork/join phase: worker *t* computes a contiguous block of C's rows
from its private replica of A and B (reads) and writes only its block —
the canonical coarse-grained private-workspace workload.  The multiply
is real and exact int32 arithmetic: on float32 BLAS (sgemm) whenever
``n · max|A| · max|B| <= 2**24``, so that every partial sum is an integer
float32 holds exactly in any summation order (entries below 100 keep
this up to n = 1,711), else numpy's int32 product.  The modelled cost
is the classic 2·n³ inner-loop instructions divided across workers.
"""

import numpy as np

from repro.mem.layout import SHARED_BASE

#: Shared-memory layout of the three matrices.
A_ADDR = SHARED_BASE + 0x10_0000

#: Largest magnitude below which every integer is a float32.
_SGEMM_EXACT = 2 ** 24


def _addrs(n):
    nbytes = n * n * 4
    a = A_ADDR
    b = (a + nbytes + 0xFFF) & ~0xFFF
    c = (b + nbytes + 0xFFF) & ~0xFFF
    return a, b, c


def default_params(nworkers, n=256, seed=7):
    return {"nworkers": nworkers, "n": n, "seed": seed}


def _read_matrix(api, addr, rows, n):
    """Read a ``rows x n`` int32 matrix and its largest magnitude; as
    float32 when that holds every entry exactly."""
    m = api.array_read(addr, np.int32, rows * n).reshape(rows, n)
    top = max(int(m.max()), -int(m.min()))
    return (m.astype(np.float32) if top <= _SGEMM_EXACT else m), top


def _multiply_block(api, tid, n, row0, rows):
    """Worker: C[row0:row0+rows, :] = A[row0:...,:] @ B."""
    if rows <= 0:
        return 0
    a_addr, b_addr, c_addr = _addrs(n)
    a_block, a_top = _read_matrix(api, a_addr + row0 * n * 4, rows, n)
    b, b_top = _read_matrix(api, b_addr, n, n)
    # sgemm only while every partial sum is an integer of at most 2**24.
    dtype = np.float32 if n * a_top * b_top <= _SGEMM_EXACT else np.int32
    c_block = a_block.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    api.work(2 * rows * n * n)
    api.array_write(c_addr + row0 * n * 4, c_block.astype(np.int32))
    return rows


def run(api, nworkers, n, seed):
    """Initialize A and B, multiply in parallel, return a checksum."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(n, n), dtype=np.int32)
    b = rng.integers(0, 100, size=(n, n), dtype=np.int32)
    a_addr, b_addr, c_addr = _addrs(n)
    api.array_write(a_addr, a)
    api.array_write(b_addr, b)
    api.work(2 * n * n)  # initialization cost

    rows_per = (n + nworkers - 1) // nworkers
    args = []
    for tid in range(nworkers):
        row0 = tid * rows_per
        args.append((n, row0, max(0, min(rows_per, n - row0))))
    api.fork_join(_multiply_block, args)

    c = api.array_read(c_addr, np.int32, n * n).reshape(n, n)
    return int(c.sum() & 0xFFFFFFFF)


def expected_checksum(n, seed):
    """Reference checksum for verification in tests."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(n, n), dtype=np.int32)
    b = rng.integers(0, 100, size=(n, n), dtype=np.int32)
    return int((a @ b).sum() & 0xFFFFFFFF)
