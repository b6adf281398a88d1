"""Baseline Linux thread-simulator tests."""


from repro.baseline.threadsim import LinuxMachine
from repro.timing.model import CostModel


def test_main_returns_value():
    machine = LinuxMachine()
    result = machine.run(lambda lt: 42)
    assert result.value == 42


def test_shared_memory_is_directly_shared():
    def main(lt):
        def child(ct):
            ct.store(0x1000, 99)

        handle = lt.spawn(child)
        lt.join(handle)
        return lt.load(0x1000)

    assert LinuxMachine().run(main).value == 99


def test_spawn_join_parallel_speedup():
    def main(lt):
        handles = [lt.spawn(lambda ct: ct.work(1_000_000)) for _ in range(4)]
        for handle in handles:
            lt.join(handle)

    r1 = LinuxMachine(ncpus=1).run(main)
    r4 = LinuxMachine(ncpus=4).run(main)
    assert r1.makespan() > 2.5 * r4.makespan()


def test_jitter_reproducible_per_seed_varies_across_seeds():
    def main(lt):
        handles = [lt.spawn(lambda ct: ct.work(500_000)) for _ in range(3)]
        for handle in handles:
            lt.join(handle)

    a = LinuxMachine(seed=1).run(main).makespan()
    b = LinuxMachine(seed=1).run(main).makespan()
    c = LinuxMachine(seed=2).run(main).makespan()
    assert a == b
    assert a != c


def test_contention_penalty_grows_with_cores():
    cost = CostModel()

    def main(lt):
        handles = [lt.spawn(lambda ct: ct.work(1000)) for _ in range(12)]
        for handle in handles:
            lt.join(handle)

    few = LinuxMachine(cost=cost, ncpus=1).run(main).total_cycles()
    many = LinuxMachine(cost=cost, ncpus=12).run(main).total_cycles()
    # Same logical work, but create/join serialization costs more with
    # more occupied cores (the [54] bottleneck model).
    assert many > few


def test_no_isolation_costs_in_trace():
    """Unlike Determinator, baseline interactions charge no page work."""
    def main(lt):
        def child(ct):
            ct.write(0x2000, b"x" * 4096)

        lt.join(lt.spawn(child))

    cost = CostModel()
    result = LinuxMachine(cost=cost).run(main)
    # Upper bound: thread ops + memory op charges; far below one
    # Determinator merge of the same page.
    overhead = result.total_cycles()
    assert overhead < cost.thread_create + cost.thread_join + \
        14 * cost.runqueue_penalty + 4096 // 16 + 1000

