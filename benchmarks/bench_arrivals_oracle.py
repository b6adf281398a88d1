"""Nightly: the blocked arrival sampler against the scalar loop at the
longest trace ``serve_trace`` accepts.

PR-time ``tests/bench/test_arrivals.py`` holds ``make_arrivals`` to its
reference (``tests/bench/arrivals_oracle.py``) on traces of a few
hundred requests.  This runs the pair at ``MAX_REQUESTS`` — about 3.3 M
ticks, 400 blocks — for three seeds.  The one thing that could make the
two differ is how a numpy release wraps, casts or shifts ``uint64``, so
CI runs this file across its Python × numpy matrix (ci.yml, job
``nightly-arrivals``), not only on the version the PR job happens to
install.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests", "bench"))

from arrivals_oracle import arrivals_scalar  # noqa: E402
from repro.bench.workloads.serving import make_arrivals  # noqa: E402
from repro.cluster.serving import MAX_REQUESTS  # noqa: E402


@pytest.mark.parametrize("seed", [1, 11, 2**64 - 1])
def test_longest_trace_equals_the_scalar_loop(seed):
    arrivals = make_arrivals(MAX_REQUESTS, 960_000, seed)
    assert arrivals == arrivals_scalar(MAX_REQUESTS, 960_000, seed)
    assert all(type(t) is int for t in arrivals)
