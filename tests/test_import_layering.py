"""A simulated run imports only the simulator (DESIGN §9, "Start-up").

Every fresh process — a test run, ``python -m repro.bench``, each
perfbench set-up child — compiles and executes every module it imports.
The real-process backend, the shard coordinator and its ledgers, the
debugger, the process runtime and the Linux baseline load on first use,
so a simulated run pays for none of them.  This ratchet runs one in a
fresh interpreter and names any of them that got loaded anyway, e.g. by
an eager re-export in a package ``__init__``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules (with their submodules) a default-spec simulated run must not
#: load.
OPTIONAL = (
    "repro.cluster.backend", "repro.cluster.realnet", "repro.kernel.shard",
    "repro.kernel.ledgers", "repro.debug",
    "repro.baseline", "repro.runtime.fs", "repro.runtime.process",
    "repro.runtime.dsched", "repro.runtime.shell", "repro.runtime.make",
    "repro.runtime.checkpoint", "multiprocessing", "socket",
)

#: ``import repro``, a cluster workload and a serving trace, then the
#: loaded module names as JSON.
SIMULATED_RUN = """
import json, sys
import repro
from repro.bench import cluster_workloads as cw
cw.run_cluster(cw.md5_circuit_main(2), 4)
repro.serve_trace(2, requests=4)
print(json.dumps(sorted(sys.modules)))
"""


def loaded_by(program):
    """Names in ``sys.modules`` after ``program`` ran in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_simulated_run_loads_no_optional_subsystem():
    loaded = loaded_by(SIMULATED_RUN)
    assert "repro.kernel.machine" in loaded      # the run did run
    found = [name for name in loaded
             if any(name == top or name.startswith(top + ".")
                    for top in OPTIONAL)]
    assert not found, (
        f"a simulated run imported {found}: import them where they are "
        f"used (DESIGN §9, 'Start-up')")


def test_every_optional_module_exists():
    """A renamed module would make the ratchet above pass vacuously."""
    assert [name for name in OPTIONAL
            if importlib.util.find_spec(name) is None] == []


PACKAGES = sorted(
    ".".join(path.relative_to(SRC).parent.parts)
    for path in (SRC / "repro").rglob("__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    """Each package's ``__all__`` holds, lazy names included
    (``repro.run_backend``, ``repro.RealRunResult``)."""
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names unresolvable {missing}"


def test_the_lazy_names_are_the_backend_names():
    from repro.cluster import backend
    assert (repro.run_backend, repro.RealRunResult) == (
        backend.run_backend, backend.RealRunResult)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
