"""Ablation: deterministic-scheduler quantum size (paper §4.5/§6.2).

"The deterministic scheduler's quantization ... incurs a fixed
performance cost of about 35% for the chosen quantum of 10 million
instructions.  We could reduce this overhead by increasing the quantum."

This sweep prices the blackscholes table under several quanta and
reports the overhead relative to the native (non-scheduled) fork/join
port, confirming the monotone trade-off.
"""

from repro.bench.harness import run_determinator
from repro.bench.workloads import blackscholes_workload as bs


def test_ablation_quantum_sweep():
    nworkers = 8
    quanta = (500_000, 2_000_000, 10_000_000, 50_000_000)

    def sweep():
        times = {}
        for quantum in quanta:
            params = bs.default_params(
                nworkers, noptions=1 << 14, nruns=16, quantum=quantum
            )
            det = run_determinator(bs, params)
            times[quantum] = det.makespan(nworkers)
        return times

    times = sweep()
    print()
    print("Quantum-size ablation (blackscholes under the det. scheduler):")
    for quantum, makespan in times.items():
        print(f"  quantum={quantum:>12,}  makespan={makespan:>14,}")
    values = [times[q] for q in quanta]
    # Larger quanta monotonically reduce the quantization overhead.
    assert values[0] > values[-1]
    assert all(a >= b * 0.98 for a, b in zip(values, values[1:]))
