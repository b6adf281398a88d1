"""Every option has a caller: no defaulted parameter nobody sets.

A knob that only the tests turn still widens the determinism matrix and
the hot loops that branch on it.  This stdlib walk collects every name
the program, its benchmarks and perfbench pass as a call keyword, and
the string keys of every dict literal, and requires each defaulted
parameter of the public configuration surfaces to be set by one of
them — or to sit in :data:`EXEMPT` with the reason it needs no such
caller, the way ``NOT_REPLAYED`` excuses attributes.  A dict sets a
surface's parameters only when all its keys are parameters of that
surface (the ``loss=`` / ``control=`` kwargs dicts), so a data record
that happens to hold a ``"segments"`` key sets nothing.  ``tests/`` and
``examples/`` do not count: a test setting a knob is not a use of it.
The scan is by name, so a keyword any call passes elsewhere passes
here too; it catches the knob nobody names at all.
"""

import ast
import inspect
from pathlib import Path

from repro.cluster.control import Controller
from repro.cluster.faults import LossSchedule
from repro.cluster.serving import serve_trace
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import PRESETS

ROOT = Path(__file__).resolve().parent.parent

#: The configuration surfaces whose defaulted parameters need a caller.
SURFACES = {
    "ClusterSpec": ClusterSpec,
    "LossSchedule": LossSchedule,
    "Controller": Controller,
    "serve_trace": serve_trace,
    **{f"topology {name!r}": ctor for name, ctor in PRESETS.items()},
}

#: ``surface.parameter`` -> why it needs no keyword or dict-key caller
#: (none does today: ``rack_size``, the one option spelled inside a
#: string — ``"two_tier:2"`` — reaches its constructor as a keyword).
EXEMPT = {}


def traffic(path):
    """``(keywords, dicts)``: the names ``path`` passes as call
    keywords, and the key set of each of its string-keyed dict
    literals."""
    keywords, dicts = set(), []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            keywords.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Dict) and node.keys and all(
                isinstance(key, ast.Constant) and isinstance(key.value, str)
                for key in node.keys):
            dicts.append({key.value for key in node.keys})
    return keywords, dicts


def defaulted(surface):
    params = inspect.signature(surface).parameters
    return [name for name, param in params.items()
            if param.default is not inspect.Parameter.empty]


def test_every_defaulted_option_has_a_caller():
    keywords, dicts = set(), []
    for top in ("src", "benchmarks", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                found, keyed = traffic(path)
                keywords |= found
                dicts += keyed
    idle = []
    for label, surface in SURFACES.items():
        params = defaulted(surface)
        used = keywords.union(*(keys for keys in dicts
                                if keys <= set(params)))
        idle += [f"{label}.{name}" for name in params
                 if name not in used and f"{label}.{name}" not in EXEMPT]
    assert not idle, (
        "options nothing outside tests/ sets (make them constants, or "
        "add an EXEMPT reason):\n" + "\n".join(idle))
