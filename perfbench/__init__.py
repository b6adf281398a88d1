"""perfbench — the host-performance benchmark of the Determinator simulator.

Five workloads, each leaning on a different layer of the simulator's own
host cost; four end-to-end metrics per workload (host microseconds per
operation, scaling slope between two sizes, peak resident memory, and
set-up time); and a traced pass that attributes the host time to the
``kernel``, ``mem``, ``runtime``, ``timing``, ``cluster`` and ``bench``
layers.  Simulated time is exact and only ever *checked*; host time is
what is measured.  ``README.md`` in this directory is the manual.

Entry points::

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 12 --trace 0
    PYTHONPATH=src python -m perfbench --seed 1 --out a.json
    PYTHONPATH=src python -m perfbench.compare a.json b.json

The benchmark drives the program only through its facade and, with
tracing off, replaces no attribute of any ``repro`` module.
"""
