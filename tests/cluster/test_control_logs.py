"""Every decision the control plane takes, byte for byte.

Each cell of the adaptive ablation's sweeps (``SWEEPS`` in
``benchmarks/bench_ablation_adaptive.py``) runs under
``prefetch_depth="adaptive"``; ``golden/control_logs.json`` pins every
cell's makespan, value and whole ``Controller.log``.  The
decisions are a pure function of the simulated run, so a refactor of
where the controller's telemetry lives must leave all three unchanged.
Regenerate after a deliberate policy change with
``PYTHONPATH=src python tests/cluster/test_control_logs.py``.
"""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "benchmarks"))
import bench_ablation_adaptive as ablation  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "control_logs.json")

#: One cell per sweep, named ``<sweep>/<prefetch_depth>``.
CELLS = [f"{sweep}/adaptive" for sweep in ablation.SWEEPS]


def run_cell(cell):
    workload, loss, _ = ablation.SWEEPS[cell.split("/")[0]]
    makespan, machine, value = ablation._run(workload, loss,
                                             prefetch_depth="adaptive")
    return {"makespan": makespan, "value": value, "log": machine.control.log}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell", CELLS)
def test_decision_log_matches_golden(golden, cell):
    assert run_cell(cell) == golden[cell]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({cell: run_cell(cell) for cell in CELLS}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
