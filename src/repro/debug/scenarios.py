"""Built-in re-runnable scenarios for the post-mortem inspector.

A *recipe* is the inspector's unit of re-execution: a callable
``recipe(prepare) -> (machine, result)`` that builds a machine with a
fixed configuration, applies ``prepare(machine)`` (the hook ``goto``
uses to install its trace observer) before running, executes a fixed
workload, and returns the still-open machine with its result.
Because the machine's inputs are all explicit and fixed, every
invocation of a recipe is bit-identical — which is the entire premise
of time-travel debugging here.

Two scenarios ship built in (the CLI's ``--scenario`` flag):

``fault-tolerance``
    The checkpoint/crash/rollback/replay workload
    (``examples/fault_tolerance.py`` narrates its post-mortem): a child
    computes through 8 epochs with a checkpoint per epoch, a poisoned input page crashes it in epoch 5,
    the supervisor rolls back one epoch and replays to the correct
    answer.  Leaves a freezer full of checkpoints to ``diff`` and a
    mid-run EXC trap to ``goto``.

``retx``
    A 2-node run over a catastrophically lossy fabric
    (90% deterministic drop, retransmission budget of 2): the first
    migration exhausts its retransmissions, the transport raises
    NetworkLossError, and the root traps EXC — the "run trapped at
    cycle 40M" the docs walk through debugging.
"""

from repro.common.errors import DebugApiError
from repro.kernel.machine import Machine
from repro.kernel.traps import Trap
from repro.runtime.checkpoint import Checkpointer

# -- fault-tolerance workload ----------------------------------------------

STATE = 0x10_0000          # progress counter + accumulator page
ACC = 0x10_0008
POISON = 0x10_1000         # the "input block", on its own page
PHASES = 8
INJECT_AT_EPOCH = 5


def ft_computation(g):
    """Checkpoint-restart style: progress lives in simulated memory."""
    while True:
        if g.load(POISON):
            raise RuntimeError("corrupted input block")
        step = g.load(STATE)
        if step >= PHASES:
            g.ret(status=0)
            continue
        g.work(50_000)
        g.store(ACC, g.load(ACC) + (step + 1) ** 2)
        g.store(STATE, step + 1)
        g.ret(status=1)


def ft_supervisor(g):
    ckpt = Checkpointer(g)
    g.put(1, regs={"entry": ft_computation}, start=True)
    epoch = 0
    crashed_at = None
    while True:
        view = g.get(1, regs=True)
        if view["trap"] is Trap.EXC:
            crashed_at = epoch
            g.debug(f"crash in epoch {epoch}: {view['trap_info']}")
            epoch -= 1
            ckpt.restore(1, f"epoch-{epoch}")
            g.debug(f"rolled back to epoch {epoch}, replaying")
            g.put(1, start=True)
            continue
        if view["status"] == 0:
            g.get(1, copy=(STATE, 0x1000))
            return g.load(ACC), crashed_at
        ckpt.save(1, f"epoch-{epoch}")
        epoch += 1
        if epoch == INJECT_AT_EPOCH and crashed_at is None:
            g.store(POISON, 1)
            g.put(1, copy=(POISON, 0x1000), start=True)
            g.store(POISON, 0)
            g.debug(f"poisoned input before epoch {epoch}")
            continue
        g.put(1, start=True)


def ft_main(g):
    result, crashed_at = ft_supervisor(g)
    expected = sum((i + 1) ** 2 for i in range(PHASES))
    g.console_write(
        f"result={result} expected={expected} "
        f"recovered-from-crash-in-epoch={crashed_at}\n"
    )
    return 0 if result == expected else 1


def fault_tolerance(prepare):
    """Recipe: the checkpoint/crash/rollback/replay run (single node)."""
    machine = Machine()
    prepare(machine)
    result = machine.run(ft_main)
    return machine, result


# -- retransmission-exhaustion trap ----------------------------------------

DATA = 0x20_0000
DATA_PAGES = 4

#: Loss schedule of the retx scenario: at a 90% deterministic drop rate
#: with a retransmission budget of 2, the probability a hop copy
#: survives its whole retry sequence is ~27%, so the multi-message
#: first migration exhausts almost surely.  The seed is pinned to a
#: value (verified by tests/debug) under which the root traps EXC *at
#: its home node* — before its own migration commits — so the trap
#: lands cleanly and the run ends in a reproducible post-mortem state.
RETX_LOSS = {"drop": 0.9, "seed": 11}
RETX_LIMIT = 2


def retx_worker(g, npages):
    total = 0
    for i in range(npages):
        total += g.load(DATA + i * 0x1000)
    g.ret(status=0, r0=total)


def retx_main(g):
    from repro import child_ref
    for i in range(DATA_PAGES):
        g.store(DATA + i * 0x1000, i + 1)
    worker = child_ref(1, node=1)
    g.put(worker, regs={"entry": retx_worker, "args": (DATA_PAGES,)},
          copy=(DATA, DATA_PAGES * 0x1000), start=True)
    view = g.get(worker, regs=True)
    if view["trap"] is not Trap.RET:
        return 1
    g.console_write(f"worker sum={view['r0']}\n")
    return 0


def retx_trap(prepare):
    """Recipe: 2-node run whose first migration dies of retransmission
    exhaustion (``NetworkLossError`` -> root Trap.EXC)."""
    from repro.cluster.spec import NODE_CPUS, ClusterSpec
    from repro.timing.model import CostModel
    machine = Machine(nnodes=2, spec=ClusterSpec(
        loss=dict(RETX_LOSS), cost=CostModel(retx_limit=RETX_LIMIT)))
    prepare(machine)
    result = machine.run(retx_main, ncpus=NODE_CPUS)
    return machine, result


#: CLI name -> recipe.
SCENARIOS = {
    "fault-tolerance": fault_tolerance,
    "retx": retx_trap,
}


def get_scenario(name):
    recipe = SCENARIOS.get(name)
    if recipe is None:
        raise DebugApiError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(sorted(SCENARIOS))}")
    return recipe
