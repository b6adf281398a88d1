"""The committed mutation survivors stay honest without running a
mutant: every entry names a mutant ``benchmarks/mutate.py`` still makes,
once, with a declared reason class, and mutant ids are unique.  Which
mutants survive is ``mutate.py``'s own run (about a minute)."""

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "benchmarks"))
import mutate  # noqa: E402


def test_every_survivor_names_a_mutant_with_a_reason():
    ids = [key for module in mutate.TARGETS
           for key, _, _ in mutate.mutants(module)]
    assert len(ids) == len(set(ids))
    entries = json.loads(mutate.SURVIVORS.read_text())
    listed = [entry["id"] for entry in entries]
    assert len(listed) == len(set(listed))
    assert set(listed) <= set(ids), sorted(set(listed) - set(ids))
    assert all(entry["reason"] in mutate.REASONS and entry["why"]
               for entry in entries)


def test_a_mutant_compiles_and_changes_one_function():
    key, qualname, build = next(
        mutant for mutant in mutate.mutants("mem/addrspace.py")
        if mutant[0].startswith(
            "mem/addrspace.py::AddressSpace._mark_dirty_many::Add->Sub::"))
    code = mutate._code_of(build(), qualname)
    assert code.co_name == "_mark_dirty_many"
    assert key.endswith("::clock += 1")
