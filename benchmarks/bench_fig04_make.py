"""Figure 4: parallel make scheduling under Unix vs Determinator wait().

Regenerates the four scenarios' makespans: (a) Unix 'make -j',
(b) Determinator 'make -j', (c) Unix 'make -j2', (d) Determinator
'make -j2' — showing the deterministic wait() trade-off of §4.1.
"""

from repro.bench import figures


def test_fig04_make_schedules():
    result = figures.figure4()
    print()
    print("Figure 4: parallel make on 2 CPUs (virtual cycles)")
    for scenario, makespan in result.items():
        print(f"  {scenario:20s} {makespan:>12,}")
    # Paper claims: (a) == (c) for Unix; (d) is the non-optimal
    # deterministic schedule.
    assert result["unix -j"] == result["unix -j2"]
    assert result["determinator -j2"] > 1.4 * result["determinator -j"]
