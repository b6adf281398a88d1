"""Every definition and every option has a caller.

Dead code widens what a reader must hold, and an option that only the
tests turn still widens the determinism matrix and branches the loops
that read it.  This stdlib walk reads every module of the program
(``src/``), its benchmarks, perfbench and the examples once each, and
holds three rules over ``src/``:

1. every function, class and method is *named* somewhere outside its
   own ``def``: as a name, an attribute, an import, or a word of a
   string that is not a docstring (perfbench's ``HOOKS`` targets are
   strings);
2. every defaulted parameter of a public callable is *passed* by some
   caller outside ``tests/`` and ``examples/``: as a call keyword, by
   position to a callable of its name, or as a key of a string-keyed
   dict literal whose keys are all parameters of that callable (the
   ``loss=`` kwargs dicts);
3. every defaulted parameter is *read* by its own body.

A hit leaves (a parameter becomes a constant, and the branch it fed
goes with it) or sits in :data:`EXEMPT` with the reason it needs no
such caller, the way ``NOT_REPLAYED`` excuses attributes.  An exemption
must excuse something the tests do use, and must still be needed.  The
scan is by name, so a keyword any call passes counts for every
parameter of that name; it catches what nobody names at all.

``python tests/test_callers.py`` prints the exemptions per reason class.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_]\w*")

# The reason classes an exemption may give.
API = "the paper's runtime or guest API, which only tests call"
ORACLE = "a host-side oracle"
SIZE = "a size seam tier-1 needs"
INPUTS = "the machine's explicit inputs (paper §2.1)"

#: ``path::qualname`` (rule 1) or ``path::qualname.parameter`` (rule 2)
#: -> ``(reason class, why)``.
EXEMPT = {
    "kernel/guest.py::Guest.set_reg": (API, "Regs, one register"),
    "kernel/guest.py::Guest.load_f64": (API, "typed load"),
    "kernel/guest.py::Guest.store_f64": (API, "typed store"),
    "kernel/kernel.py::Kernel.sys_put.zero": (API, "Put's Zero option"),
    "kernel/kernel.py::Kernel.sys_put.perm": (API, "Put's Perm option"),
    "kernel/kernel.py::Kernel.sys_put.grant_io": (API, "I/O delegation"),
    "kernel/kernel.py::Kernel.sys_get.zero": (API, "Get's Zero option"),
    "kernel/kernel.py::Kernel.sys_get.perm": (API, "Get's Perm option"),
    "runtime/dsched.py::DetThread.mutex_lock": (API, "pthread_mutex_lock"),
    "runtime/dsched.py::DetThread.mutex_unlock": (API,
                                                   "pthread_mutex_unlock"),
    "runtime/dsched.py::DetThread.sched_yield": (API, "sched_yield"),
    "runtime/dsched.py::DetThread.cond_wait": (API, "pthread_cond_wait"),
    "runtime/dsched.py::DetThread.cond_signal": (API, "pthread_cond_signal"),
    "runtime/dsched.py::DetThread.cond_broadcast": (API,
                                                     "pthread_cond_broadcast"),
    "runtime/dsched.py::det_pthreads_run": (API, "a pthreads program's main"),
    "runtime/fs.py::FileSystem.seek": (API, "lseek"),
    "runtime/fs.py::FileSystem.tell": (API, "lseek(fd, 0, SEEK_CUR)"),
    "runtime/fs.py::FileSystem.stat": (API, "stat"),
    "runtime/process.py::ProcessRuntime.read_console": (API, "read(0, ...)"),
    "runtime/process.py::ProcessRuntime.fsync": (API, "fsync"),
    "runtime/make.py::MakeRule.deps": (API, "a make rule's prerequisites"),
    "runtime/shell.py::Shell": (API, "the Unix-style shell (paper §5)"),
    "runtime/shell.py::Shell.run_script": (API, "a scripted shell session"),
    "bench/workloads/blackscholes.py::expected_checksum": (
        ORACLE, "numpy pricing the guest's answer is checked against"),
    "bench/workloads/matmult.py::expected_checksum": (
        ORACLE, "numpy product the guest's answer is checked against"),
    "bench/figures.py::figure7.cpu_counts": (SIZE, "fewer CPU counts"),
    "bench/figures.py::figure7.benchmarks": (SIZE, "fewer benchmarks"),
    "bench/figures.py::figure8.cpu_counts": (SIZE, "fewer CPU counts"),
    "bench/figures.py::figure8.benchmarks": (SIZE, "fewer benchmarks"),
    "bench/figures.py::figure9.sizes": (SIZE, "smaller matrices"),
    "bench/figures.py::figure10.sizes": (SIZE, "shorter arrays"),
    "bench/figures.py::figure11.md5_length": (SIZE, "a smaller search"),
    "bench/figures.py::figure11.matmult_n": (SIZE, "smaller matrices"),
    "bench/figures.py::figure11_prefetch.matmult_n": (SIZE,
                                                      "smaller matrices"),
    "bench/figures.py::figure11_topology.matmult_n": (SIZE,
                                                      "smaller matrices"),
    "bench/figures.py::figure12.md5_length": (SIZE, "a smaller search"),
    "bench/figures.py::figure12.matmult_n": (SIZE, "smaller matrices"),
    "bench/workloads/serving.py::make_arrivals.segments": (
        SIZE, "the arrivals oracle's short traces"),
    "bench/workloads/serving.py::make_arrivals.segment_cycles": (
        SIZE, "the arrivals oracle's short traces"),
    "kernel/machine.py::Machine.console_input": (INPUTS, "console device"),
    "kernel/machine.py::Machine.time_script": (INPUTS, "clock device"),
    "kernel/machine.py::Machine.programs": (INPUTS, "exec's program table"),
}


class Definition:
    """One ``def`` or ``class`` of ``src/``."""

    def __init__(self, qualname, public, positional=(), defaulted=(),
                 unread=()):
        self.qualname = qualname
        self.name = qualname.rsplit(".", 1)[-1]
        #: Rule 2 applies: no part of the qualname is private, and it
        #: is not local to a function.
        self.public = public
        #: Parameters a call fills by position (no ``self``), in order.
        self.positional = list(positional)
        self.defaulted = list(defaulted)
        #: Defaulted parameters the body never reads (rule 3).
        self.unread = list(unread)


class Traffic:
    """What one or more modules define, name and pass."""

    def __init__(self):
        self.defs = []
        #: Every name, attribute, import and non-docstring word.
        self.names = set()
        self.keywords = set()
        #: callee name -> most positional arguments one call passes
        #: (a ``*args`` call passes them all).
        self.positional = Counter()
        #: Key set of each string-keyed dict literal.
        self.dicts = []

    def update(self, other):
        self.names |= other.names
        self.keywords |= other.keywords
        self.positional |= other.positional
        self.dicts += other.dicts

    def passes(self, definition, param):
        """Whether some call here passes ``definition``'s ``param``."""
        if param in self.keywords:
            return True
        if param in definition.positional and (
                definition.positional.index(param)
                < self.positional[definition.name]):
            return True
        accepted = set(definition.positional) | set(definition.defaulted)
        return any(param in keys and keys <= accepted for keys in self.dicts)


def _signature(node, method):
    """``(positional, defaulted)`` parameter names of a ``def``."""
    args = node.args
    ordered = [a.arg for a in args.posonlyargs + args.args]
    defaulted = ordered[len(ordered) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
    return ordered[1:] if method and not static else ordered, defaulted


def _constructor(node):
    """``(positional, defaulted)`` of a class's call: its ``__init__``,
    or its fields for a dataclass or ``NamedTuple`` (a ``ClassVar`` or
    an ``init=False`` field is a constant, not a parameter)."""
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            return _signature(stmt, True)
    if any("dataclass" in ast.unparse(d) for d in node.decorator_list) or \
            any(ast.unparse(b).endswith("NamedTuple") for b in node.bases):
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)
                  and "ClassVar" not in ast.unparse(s.annotation)
                  and not (s.value and "init=False" in ast.unparse(s.value))]
        return ([s.target.id for s in fields],
                [s.target.id for s in fields if s.value is not None])
    return [], []


def traffic(path):
    """One walk of the module at ``path``: a :class:`Traffic`."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)}
    found = Traffic()

    def visit(node, owners, qual, public, in_class):
        """``owners``: the defs ``node`` sits in, whose own names do not
        count as named; ``public``: whether a def here can be."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = f"{qual}.{node.name}" if qual else node.name
            public = public and not node.name.startswith("_")
            for outer in node.decorator_list + getattr(node, "bases", []):
                visit(outer, owners, qual, False, False)
            owners = owners | {node.name}
            if isinstance(node, ast.ClassDef):
                found.defs.append(Definition(qualname, public,
                                             *_constructor(node)))
                for stmt in node.body:
                    visit(stmt, owners, qualname, public, True)
                return
            positional, defaulted = _signature(node, in_class)
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            found.defs.append(Definition(
                qualname, public, positional, defaulted,
                [p for p in defaulted if p not in read]))
            for child in ast.iter_child_nodes(node):
                if child not in node.decorator_list:
                    visit(child, owners, qualname, False, False)
            return
        named = ()
        if isinstance(node, ast.Name):
            named = (node.id,)
        elif isinstance(node, ast.Attribute):
            named = (node.attr,)
        elif isinstance(node, ast.alias):
            named = (*node.name.split("."), node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            named = WORD.findall(node.value)
        elif isinstance(node, ast.Call):
            found.keywords.update(kw.arg for kw in node.keywords)
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = 1 << 16 if starred else len(node.args)
            found.positional[callee] = max(found.positional[callee], count)
        elif isinstance(node, ast.Dict) and node.keys and all(
                isinstance(key, ast.Constant) and isinstance(key.value, str)
                for key in node.keys):
            found.dicts.append({key.value for key in node.keys})
        found.names.update(name for name in named if name not in owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owners, qual, public, in_class)

    visit(tree, frozenset(), "", True, False)
    return found


def scan(*tops):
    """``{path: Traffic}`` of every module under ``tops`` outside a
    ``tests`` directory."""
    return {path: traffic(path)
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))
            if "tests" not in path.relative_to(ROOT).parts}


def merged(modules):
    total = Traffic()
    for found in modules:
        total.update(found)
    return total


@functools.cache
def hits():
    """``{label: rule}`` of every definition or parameter of ``src/``
    breaking a rule, exempt or not."""
    modules = scan("src", "benchmarks", "perfbench", "examples")
    named = merged(modules.values()).names
    program = merged(found for path, found in modules.items()
                     if not path.is_relative_to(ROOT / "examples"))
    found = {}
    for path, module in modules.items():
        if not path.is_relative_to(SRC):
            continue
        for d in module.defs:
            label = f"{path.relative_to(SRC)}::{d.qualname}"
            dunder = d.name.startswith("__") and d.name.endswith("__")
            if d.name not in named and not dunder:
                found[label] = 1
            for param in d.defaulted:
                if param in d.unread:
                    found[f"{label}.{param}"] = 3
                elif d.public and not program.passes(d, param):
                    found[f"{label}.{param}"] = 2
    return found


def test_every_definition_is_named():
    idle = sorted(label for label, rule in hits().items()
                  if rule == 1 and label not in EXEMPT)
    assert not idle, (
        "definitions nothing outside tests/ names (delete them, or add "
        "an EXEMPT reason):\n" + "\n".join(idle))


def test_every_defaulted_option_has_a_caller():
    idle = sorted(label for label, rule in hits().items()
                  if rule == 2 and label not in EXEMPT)
    assert not idle, (
        "options nothing outside tests/ and examples/ passes (make them "
        "constants, or add an EXEMPT reason):\n" + "\n".join(idle))


def test_every_defaulted_parameter_is_read():
    unread = sorted(label for label, rule in hits().items() if rule == 3)
    assert not unread, (
        "parameters accepted and never read:\n" + "\n".join(unread))


def test_every_exemption_is_needed_and_used_by_the_tests():
    """An exemption excuses only a current hit, with a reason of an
    allowed class, and only what the tests themselves name or pass:
    something nothing calls at all, tests included, leaves."""
    found = hits()
    stale = sorted(set(EXEMPT) - set(found))
    assert not stale, "EXEMPT entries that break no rule:\n" + "\n".join(stale)
    assert {reason for reason, _ in EXEMPT.values()} <= {API, ORACLE, SIZE,
                                                         INPUTS}
    tests = merged(traffic(path)
                   for path in sorted((ROOT / "tests").rglob("*.py")))
    defs = {f"{path.relative_to(SRC)}::{d.qualname}": d
            for path, module in scan("src").items() for d in module.defs}
    unused = []
    for label in EXEMPT:
        owner, _, param = label.rpartition(".") if found[label] == 2 \
            else (label, "", "")
        d = defs[owner]
        if not (tests.passes(d, param) if param else d.name in tests.names):
            unused.append(label)
    assert not unused, (
        "EXEMPT entries not even the tests call (delete them):\n"
        + "\n".join(unused))


if __name__ == "__main__":
    for reason, count in Counter(r for r, _ in EXEMPT.values()).most_common():
        print(f"{count:4d}  {reason}")
    print(f"{len(EXEMPT):4d}  exemptions in all")
