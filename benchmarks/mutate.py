"""Mutation ratchet: how much of a module do its oracle tests pin?

For each target module every mutant is made from the module's ``ast``,
one at a time, by five operators:

* a comparison swap (``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``is``/``is not``, ``in``/``not in``);
* ``+`` <-> ``-`` (also in ``+=`` / ``-=``);
* an integer constant +1 and -1;
* ``and`` <-> ``or``;
* a dropped augmented assignment (the statement becomes ``pass``).

Only function bodies are mutated.  The oracle tests are collected once;
each mutant is applied in a forked child by compiling the mutated
module and swapping the one function's code object into the imported
function (every caller then runs the mutant), and the child runs the
collected tests of every oracle file that calls that function, up to
the first failure, with hypothesis derandomised.  A mutant the tests
pass *survives*; so does one of a function no oracle calls.  Each survivor is
listed in ``tests/mutation/survivors.json`` with a reason class
(:data:`REASONS`) and a one-line why; a survivor not listed there
fails the run, and a listed one that no longer survives is reported as
stale.

    PYTHONPATH=src python benchmarks/mutate.py [mem/addrspace.py ...]

The target modules and their oracles are :data:`TARGETS`.  Two mutants
run at a time; one that runs longer than :data:`TIMEOUT` seconds (a
loop that no longer ends) counts as killed.
"""

import argparse
import ast
import contextlib
import functools
import importlib
import json
import os
import pathlib
import signal
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SURVIVORS = ROOT / "tests" / "mutation" / "survivors.json"

#: Module (relative to ``src/repro``) -> the oracle tests that must
#: kill its mutants, the quick unit tests first (``-x`` stops at the
#: first failure).
TARGETS = {
    "cluster/compress.py": ["tests/cluster/test_compress.py"],
    "cluster/faults.py": ["tests/cluster/test_faults.py"],
    "common/detrandom.py": ["tests/common/test_detrandom.py"],
    "mem/addrspace.py": ["tests/mem/test_addrspace.py",
                         "tests/mem/test_dirty.py",
                         "tests/mem/test_table_reads.py",
                         "tests/kernel/test_putget_reads.py",
                         "tests/mem/test_write_oracle.py",
                         "tests/mem/test_copy_oracle.py"],
    "mem/merge.py": ["tests/mem/test_merge.py",
                     "tests/mem/test_merge_oracle.py",
                     "tests/mem/test_merge_properties.py"],
    "mem/snapshot.py": ["tests/mem/test_addrspace.py",
                        "tests/mem/test_dirty.py",
                        "tests/mem/test_table_reads.py",
                        "tests/kernel/test_putget_reads.py",
                        "tests/mem/test_merge.py",
                        "tests/mem/test_merge_oracle.py",
                        "tests/mem/test_copy_oracle.py"],
}

#: The reason classes a listed survivor may give.
REASONS = {
    "equivalent": "no input distinguishes the mutant from the original",
    "cost-only": "changes how much work is done, never what is computed",
}

JOBS = 2
TIMEOUT = 60

_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}


def _functions(tree):
    """``(qualname, def node)`` of every function in ``tree`` that is
    not nested in another function."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
    yield from walk(tree.body, "")


def _replace(obj, field, value, index=None):
    """One mutation: ``obj.field`` (or its ``index``-th element) becomes
    ``value``.  Calling the result applies it and returns its undo."""
    def apply():
        if index is None:
            old = getattr(obj, field)
            setattr(obj, field, value)
            return lambda: setattr(obj, field, old)
        seq = getattr(obj, field)
        old, seq[index] = seq[index], value
        return lambda: seq.__setitem__(index, old)
    return apply


def _sites(func):
    """``(node, label, apply)`` per mutant of one function body (see
    :func:`_replace` for ``apply``)."""
    parents = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for stmt in func.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in _SWAP:
                        new = _SWAP[type(op)]
                        label = f"{type(op).__name__}->{new.__name__}@{i}"
                        yield node, label, _replace(node, "ops", new(), i)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and type(node.op) in _ARITH:
                new = _ARITH[type(node.op)]
                yield node, f"{type(node.op).__name__}->{new.__name__}", \
                    _replace(node, "op", new())
            elif isinstance(node, ast.BoolOp):
                new = _BOOL[type(node.op)]
                yield node, f"{type(node.op).__name__}->{new.__name__}", \
                    _replace(node, "op", new())
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                for delta in (1, -1):
                    yield node, f"{node.value}->{node.value + delta}", \
                        _replace(node, "value", node.value + delta)
            if isinstance(node, ast.AugAssign):
                parent = parents[node]
                for field, value in ast.iter_fields(parent):
                    if isinstance(value, list) and node in value:
                        yield node, "drop", _replace(
                            parent, field, ast.copy_location(ast.Pass(), node),
                            value.index(node))


def mutants(module):
    """``(id, qualname, build)`` of every mutant of ``module`` (a path
    under ``src/repro``): ``build()`` compiles the mutated module.
    Ids are ``module::qualname::operator::source line``, with ``#n``
    appended to the second and later of equal ids."""
    _, path = _names(module)
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    seen = {}
    for qualname, func in _functions(tree):
        for node, label, apply in list(_sites(func)):
            key = (f"{module}::{qualname}::{label}::"
                   f"{lines[node.lineno - 1].strip()}")
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                key += f"#{seen[key]}"
            yield key, qualname, functools.partial(_build, tree, path, apply)


def _build(tree, path, apply):
    undo = apply()
    try:
        return compile(tree, str(path), "exec")
    finally:
        undo()


def _code_of(code, qualname):
    """The code object of the function ``qualname`` inside a module's
    code object, found by name path through the nested constants."""
    for name in qualname.split("."):
        code = next(const for const in code.co_consts
                    if isinstance(const, type(code)) and const.co_name == name)
    return code


def _function(module, qualname):
    obj = importlib.import_module(module)
    for name in qualname.split("."):
        obj = vars(obj)[name]
    return getattr(obj, "__func__", obj)


def _run_items(items):
    """Run pytest ``items`` in this (forked) process, output discarded,
    up to the first failure; returns the exit status."""
    from _pytest.runner import runtestprotocol

    with open(os.devnull, "w") as sink:
        os.dup2(sink.fileno(), 1)
        os.dup2(sink.fileno(), 2)
    for n, item in enumerate(items):
        following = items[n + 1] if n + 1 < len(items) else None
        if any(report.failed for report in
               runtestprotocol(item, nextitem=following, log=False)):
            return 1
    return 0


def _cover(modules, items, out):
    """In a forked child: run ``items`` unmutated with every function of
    ``modules`` noting its qualname in ``__mutate_seen__`` on entry, and
    write ``{module: [names called]}`` to ``out``.  Returns the exit
    status."""
    seen = {}
    for module in modules:
        name, path = _names(module)
        tree = ast.parse(path.read_text(), str(path))
        functions = list(_functions(tree))
        for qualname, func in functions:
            doc = ast.get_docstring(func, clean=False) is not None
            note = ast.parse(f"__mutate_seen__.add({qualname!r})").body[0]
            func.body.insert(int(doc), ast.copy_location(note, func.body[0]))
        code = compile(ast.fix_missing_locations(tree), str(path), "exec")
        seen[module] = vars(importlib.import_module(name))[
            "__mutate_seen__"] = set()
        for qualname, _ in functions:
            _function(name, qualname).__code__ = _code_of(code, qualname)
    status = _run_items(items)
    pathlib.Path(out).write_text(
        json.dumps({module: sorted(names) for module, names in seen.items()}))
    return status


def _mutant(module, qualname, build, items):
    """In a forked child: install the mutant and run ``items``."""
    _function(module, qualname).__code__ = _code_of(build(), qualname)
    return _run_items(items)


def _forked(jobs):
    """Run each ``(key, body)`` of ``jobs`` in a forked child, at most
    :data:`JOBS` at a time; the child exits with ``body()``.  Returns
    ``{key: exit code}``, negative for a child killed by a signal (one
    still running after :data:`TIMEOUT` seconds is killed)."""
    codes, running, queue = {}, {}, list(jobs)
    while queue or running:
        while queue and len(running) < JOBS:
            key, body = queue.pop(0)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    status = body()
                finally:
                    os._exit(status)
            running[pid] = (key, time.monotonic())
        pid, status = os.waitpid(-1, os.WNOHANG)
        if pid:
            codes[running.pop(pid)[0]] = os.waitstatus_to_exitcode(status)
            continue
        time.sleep(0.02)
        for pid, (_, start) in running.items():
            if time.monotonic() - start > TIMEOUT:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
    return codes


def _names(module):
    """The import name and the path of a target module."""
    return ("repro." + module[:-3].replace("/", "."),
            ROOT / "src" / "repro" / module)


def _callers(modules, items):
    """``{test file: {module: functions it calls}}`` over every oracle
    of ``modules``, measured by one unmutated run of each file's
    ``items``; a file that fails unmutated maps to None."""
    tests = sorted({test for module in modules for test in TARGETS[module]})
    with tempfile.TemporaryDirectory(prefix="mutate_") as tmp:
        outs = {test: os.path.join(tmp, f"{n}.json")
                for n, test in enumerate(tests)}
        codes = _forked((test, functools.partial(_cover, modules, items[test],
                                                 outs[test]))
                        for test in tests)
        return {test: None if codes[test] else {
                    module: set(names) for module, names in
                    json.loads(pathlib.Path(outs[test]).read_text()).items()}
                for test in tests}


def run(module, items, calls):
    """Every mutant of ``module`` against the collected tests (``items``
    per file) of the oracle files that call the mutated function
    (``calls``, from :func:`_callers`); returns ``(survivors, total)``.
    A mutant of a function no oracle calls survives without a run."""
    name, _ = _names(module)
    every = list(mutants(module))
    jobs = []
    for key, qualname, build in every:
        selected = [item for test in TARGETS[module]
                    if qualname in calls[test][module]
                    for item in items[test]]
        if selected:
            jobs.append((key, functools.partial(_mutant, name, qualname,
                                                build, selected)))
    codes = _forked(jobs)
    return [key for key, _, _ in every if codes.get(key, 0) == 0], len(every)


class _Session:
    """A pytest plugin that collects every oracle once and then, in
    place of the test run, runs the mutants of ``modules`` against the
    collected items."""

    def __init__(self, modules):
        self.modules = modules
        self.results = {}
        self.failing = []

    def pytest_runtestloop(self, session):
        items = {}
        for item in session.items:
            items.setdefault(str(item.path.relative_to(ROOT)), []).append(item)
        calls = _callers(self.modules, items)
        self.failing = [test for test, called in calls.items()
                        if called is None]
        if not self.failing:
            for module in self.modules:
                self.results[module] = run(module, items, calls)
        return True


def mutate(modules):
    """``{module: (survivors, total)}`` for ``modules``.  Hypothesis
    runs derandomised, with no example database, so every run of a
    mutant draws the same examples and leaves nothing behind.  The
    collection imports every oracle before the first fork and runs no
    test, so no guest thread exists in the process that forks."""
    from hypothesis import Phase, settings
    import pytest

    # A killed mutant needs one failing example, not the smallest one:
    # shrinking is what takes a failing hypothesis test minutes.
    settings.register_profile(
        "mutate", derandomize=True, database=None,
        phases=[Phase.explicit, Phase.generate])
    settings.load_profile("mutate")
    tests = sorted({test for module in modules for test in TARGETS[module]})
    plugin = _Session(modules)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        pytest.main(["-q", "-p", "no:cacheprovider", *tests],
                    plugins=[plugin])
    if plugin.failing:
        raise SystemExit(f"the oracles fail unmutated: {plugin.failing}")
    if set(plugin.results) != set(modules):
        raise SystemExit(f"the oracles do not collect: {tests}")
    return plugin.results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", metavar="module",
                        help=f"of {sorted(TARGETS)} (default: all)")
    args = parser.parse_args()
    modules = args.modules or list(TARGETS)
    unknown = sorted(set(modules) - set(TARGETS))
    if unknown:
        parser.error(f"no oracles declared for {unknown}")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    listed = {entry["id"]: entry["reason"]
              for entry in json.loads(SURVIVORS.read_text())}
    started = time.monotonic()
    new, stale = [], []
    for module, (survivors, total) in mutate(modules).items():
        print(f"{module}: {total} mutants, {len(survivors)} survive")
        for key in survivors:
            print(f"  {listed.get(key, 'NEW')}: {key}")
        new += [key for key in survivors if key not in listed]
        stale += [key for key in listed if key.startswith(module + "::")
                  and key not in survivors]
    for key in stale:
        print(f"stale (now killed; drop it from {SURVIVORS.name}): {key}")
    print(f"{time.monotonic() - started:.1f} s")
    if new:
        print(f"{len(new)} new survivor(s); kill them with an oracle or "
              f"list them in {SURVIVORS.relative_to(ROOT)} with a reason "
              f"from {sorted(REASONS)}:")
        print(json.dumps([{"id": key, "reason": "", "why": ""}
                          for key in new], indent=1))
        raise SystemExit(1)


if __name__ == "__main__":
    main()
