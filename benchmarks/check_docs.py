#!/usr/bin/env python
"""CI gate: the documented command lines must actually run.

Extracts every command line from the fenced shell code blocks of the
README quickstart *and* ``docs/debugging.md`` and replays each through
a *smoke* variant (``--collect-only`` for the test suite, ``--smoke``
for long examples, ``--help`` for utilities, verbatim for the
deterministic inspector commands), so a renamed entry point, a dropped
flag, or a moved file makes the docs job fail instead of silently
rotting the docs.  Two drift directions are covered:

* a REQUIRED command disappearing from its document (someone edited
  the guide away) fails;
* a command appearing in a document that this script does not know how
  to smoke-test fails with instructions to teach it — undocumented
  commands never get silently skipped.

The output a guide shows for a ``repro.debug`` command is checked too:
the plain fenced block right after the command's block must match what
the command prints — its lines, ``...`` lines skipped, appear in the
real stdout in order.

Two more passes need no subprocess.  Every backticked ``Class`` or
``Class.member`` in README.md, DESIGN.md and ``docs/*.md`` must name a
class ``src/`` defines and, with a member, one the class has
(:func:`stale_names`); and every backticked ``path.py`` or
``path.py::name`` there must name a file of the repo and, with a name,
a top-level def, class or assignment in it, or a ``Class.member``
(:func:`stale_paths`).  So a renamed or deleted name or module cannot
linger in the prose.  Every ``DESIGN §n "title"`` citation in the code,
the tests and the docs, and every ``§n "title"`` cross-reference inside
DESIGN.md, must name a section of DESIGN.md and a heading or lead-in
inside it (:func:`stale_sections`); and DESIGN.md keeps its shape: no
change number, no plan item, at most :data:`DESIGN_MAX_LINES` lines
(:func:`design_shape`).

Usage: python benchmarks/check_docs.py [--docs FILE [FILE ...]]
"""

import argparse
import ast
import builtins
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Documented command -> argv to actually run (None = run verbatim).
#: The keys must match the documented lines exactly; editing a guide
#: means editing this table in the same commit.
SMOKE = {
    "PYTHONPATH=src python -m pytest -x -q":
        ["python", "-m", "pytest", "-x", "-q", "--collect-only"],
    "PYTHONPATH=src python examples/distributed_md5.py":
        ["python", "examples/distributed_md5.py", "--smoke"],
    "PYTHONPATH=src python -m repro.bench fig4": None,
    "PYTHONPATH=src python -m repro.bench serving": None,
    # docs/backends.md — the backend-aware artifacts are deterministic
    # and fast on both backends, so they run verbatim (drift in the
    # --backend flag or the artifact names fails here); the real-
    # backend runs skip silently only via the artifact's own gates.
    "PYTHONPATH=src python -m repro.bench md5": None,
    "PYTHONPATH=src python -m repro.bench md5 --backend=real": None,
    "PYTHONPATH=src python -m repro.bench serving --backend=real": None,
    "PYTHONPATH=src python -m pytest tests/cluster/test_backend_oracle.py "
    "-q":
        ["python", "-m", "pytest", "tests/cluster/test_backend_oracle.py",
         "-q", "--collect-only"],
    "python benchmarks/check_regression.py":
        ["python", "benchmarks/check_regression.py", "--help"],
    "python benchmarks/check_docs.py":
        ["python", "benchmarks/check_docs.py", "--help"],
    # docs/debugging.md — the inspector commands are deterministic and
    # fast, so they run verbatim (drift in scenario names, cycle
    # numbers, checkpoint tags, or subcommand flags fails here).
    "PYTHONPATH=src python -m repro.debug --scenario retx summary": None,
    "PYTHONPATH=src python -m repro.debug --scenario retx tree --pages":
        None,
    "PYTHONPATH=src python -m repro.debug tree": None,
    "PYTHONPATH=src python -m repro.debug bt s3": None,
    "PYTHONPATH=src python -m repro.debug --scenario retx links": None,
    "PYTHONPATH=src python -m repro.debug --scenario retx links --at 20000":
        None,
    "PYTHONPATH=src python -m repro.debug diff epoch-4 epoch-5": None,
    "PYTHONPATH=src python -m repro.debug goto 345806": None,
    "PYTHONPATH=src python -m repro.debug --scenario retx goto 45924": None,
    "PYTHONPATH=src python examples/fault_tolerance.py": None,
    "PYTHONPATH=src python -m pytest tests/debug -q":
        ["python", "-m", "pytest", "tests/debug", "-q", "--collect-only"],
}

#: Document (repo-relative) -> commands it must keep containing.
REQUIRED = {
    "README.md": {
        "PYTHONPATH=src python -m pytest -x -q",
        "PYTHONPATH=src python examples/distributed_md5.py",
    },
    "docs/debugging.md": {
        "PYTHONPATH=src python -m repro.debug goto 345806",
        "PYTHONPATH=src python examples/fault_tolerance.py",
    },
    "docs/backends.md": {
        "PYTHONPATH=src python -m repro.bench md5 --backend=real",
    },
}

#: Documents scanned by default.
DEFAULT_DOCS = ("README.md", "docs/debugging.md", "docs/backends.md")

_FENCE = re.compile(r"^```(?:ba)?sh\s*$")

#: Documents whose backticked class names must resolve.
NAME_DOCS = ("README.md", "DESIGN.md", "docs/*.md")
_SPAN = re.compile(r"`([^`\n]+)`")
#: A span that starts with a class name, and the member after its dot.
_REF = re.compile(r"([A-Z]\w*)(?:\.(\w+))?")
#: The instance names the docs use for one class each.  Perfbench metric
#: namespaces (``kernel.``, ``cluster.``, ``trace.``, ``mem.``) are not
#: instances.
INSTANCES = {"machine": "Machine", "transport": "Transport"}
#: A span that starts with one of them, and its first member.
_INSTANCE = re.compile(rf"({'|'.join(INSTANCES)})\.(\w+)")
#: A name shaped like a class (two humps): unknown ones are stale.
_CAMEL = re.compile(r"[A-Z][a-z0-9]+[A-Z]\w*")
#: A module reference: ``path.py`` or ``path.py::name[.member]``.
_PATH = re.compile(r"([\w/]+\.py)(?:::(\w+)(?:\.(\w+))?)?")
#: Where a path that is not repo-relative may be rooted.
PATH_ROOTS = ("", "src/", "src/repro/")

DESIGN = REPO / "DESIGN.md"
#: DESIGN.md's line ceiling.  A ratchet: lower it when the file shrinks,
#: and put a number in the pairs ledger or CHANGES.md, not in DESIGN.md.
DESIGN_MAX_LINES = 1225
#: What DESIGN.md must not say: it describes the system, not its history.
_HISTORY = re.compile(r"PR \d+|ROADMAP")
#: Files whose ``DESIGN §n "title"`` citations must resolve.
SECTION_DOCS = ("src/**/*.py", "tests/**/*.py", "benchmarks/**/*.py",
                "examples/**/*.py", "README.md", "ROADMAP.md", "docs/*.md",
                ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
#: A citation of DESIGN.md: a section number and, quoted, a title (a
#: title holds no quote character; a citation may wrap across lines,
#: comment lines included).
_CITE = re.compile(
    r"""DESIGN(?:\.md)?`?,?[\s#]+§(\d+)(?:,?\s*(["'])(?P<title>\w[^"']*)\2)?""")
#: A cross-reference inside DESIGN.md: ``§n "title"``.
_XREF = re.compile(r'§(\d+),?\s*"(?P<title>\w[^"]*)"')
_SECTION = re.compile(r"^## (\d+)\. ", re.M)
#: What a quoted title may name inside its section: a ``###`` heading,
#: or a bold or italic lead-in at the start of a line or a bullet (one
#: that may wrap, but not across a blank line).
_LEAD = r"((?:[^*\n]|\n(?![ \t]*\n))+?)"
_ANCHOR = re.compile(
    rf"^### ([^\n]+)|^[ \t]*(?:[-*][ \t]+|\d+\.[ \t]+)?"
    rf"(?:\*\*(?!\s){_LEAD}\*\*|\*(?![\s*]){_LEAD}\*)", re.M)


def _closing(lines, start):
    """Index of the fence closing the block opened at ``start``."""
    return next(j for j in range(start + 1, len(lines))
                if lines[j].startswith("```"))


def extract_commands(doc):
    """``[(command, output), ...]``: the command lines inside ```sh /
    ```bash fenced blocks (``$ `` and comment lines stripped).  A
    block's last command carries the lines of the plain ``` block that
    follows it (blank lines between allowed) as its documented output;
    every other output is None."""
    lines = doc.read_text().splitlines()
    pairs = []
    for start, line in enumerate(lines):
        if not _FENCE.match(line.strip()):
            continue
        end = _closing(lines, start)
        commands = [text.strip().removeprefix("$ ").strip()
                    for text in lines[start + 1:end]]
        commands = [c for c in commands if c and not c.startswith("#")]
        after = next((j for j in range(end + 1, len(lines))
                      if lines[j].strip()), None)
        output = None
        if after is not None and lines[after].strip() == "```":
            output = lines[after + 1:_closing(lines, after)]
        pairs += [(command, None) for command in commands[:-1]]
        if commands:
            pairs.append((commands[-1], output))
    return pairs


def missing_output(documented, stdout):
    """The first documented line (``...`` lines skipped) that does not
    appear in ``stdout`` after the lines matched before it, or None."""
    printed = iter(stdout.splitlines())
    for want in documented:
        if want.strip() != "..." and not any(got == want for got in printed):
            return want
    return None


def smoke_argv(command):
    """The argv to smoke-test ``command`` with (prefix assignments like
    ``PYTHONPATH=src`` are moved into the environment by run())."""
    argv = SMOKE[command]
    if argv is not None:
        return argv
    return [part for part in command.split() if "=" not in part or
            not part.partition("=")[0].isupper()]


def run(command):
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    argv = smoke_argv(command)
    print(f"check_docs: {command!r} -> {' '.join(argv)}")
    result = subprocess.run(argv, cwd=REPO, env=env,
                            capture_output=True, text=True)
    if result.returncode != 0:
        print(f"check_docs: FAILED ({result.returncode}):\n"
              f"{result.stdout[-2000:]}\n{result.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return result.stdout


def _relpath(doc):
    try:
        return Path(doc).resolve().relative_to(REPO).as_posix()
    except ValueError:
        return Path(doc).name


def _strings(node):
    """The string entries of a tuple or list literal."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return []
    return [elt.value for elt in node.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]


def _members(cls):
    """Every name a ``ClassDef`` gives its instances: the body's defs
    and assignments (dataclass fields included), the strings of its
    ``FIELDS``, ``SCALARS`` and ``__slots__``, and each ``self.x = ``
    of its methods."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id in ("FIELDS", "SCALARS", "__slots__"):
                        names.update(_strings(stmt.value))
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            names.add(node.attr)
    return names


def src_classes(src=REPO / "src"):
    """``{class name: (member names, base names)}`` of every class
    under ``src`` (two classes of one name pool theirs)."""
    classes = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                members, bases = classes.setdefault(node.name, (set(), set()))
                members |= _members(node)
                bases |= {base.id if isinstance(base, ast.Name) else base.attr
                          for base in node.bases
                          if isinstance(base, (ast.Name, ast.Attribute))}
    return classes


def _resolves(classes, name, member, seen=()):
    """Whether class ``name`` (or a base, src or builtin) has
    ``member``.  A class with ``__getattr__`` forwards: it has what any
    class under ``src/`` has."""
    if hasattr(object, member):
        return True
    members, bases = classes[name]
    if member in members:
        return True
    if "__getattr__" in members:
        return any(member in other for other, _ in classes.values())
    for base in bases - set(seen):
        if base in classes:
            if _resolves(classes, base, member, seen + (name,)):
                return True
        elif hasattr(getattr(builtins, base, None), member):
            return True
    return False


def _name_docs():
    """The :data:`NAME_DOCS` files, in glob order."""
    return [path for pattern in NAME_DOCS
            for path in sorted(REPO.glob(pattern))]


def _prose_spans(doc):
    """``(lineno, span)`` of each backticked span outside fenced
    blocks of ``doc``."""
    fenced = False
    for lineno, line in enumerate(Path(doc).read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            for span in _SPAN.findall(line):
                yield lineno, span


def stale_names(docs=None):
    """``["doc:line: `span`", ...]`` for each backticked span outside
    fenced blocks that starts with a ``Class`` or ``Class.member`` no
    class under ``src/`` resolves (a two-hump name no class has is
    stale too), or with a ``machine.member`` / ``transport.member``
    that ``Machine`` / ``Transport`` does not have."""
    if docs is None:
        docs = _name_docs()
    classes = src_classes()
    found = []
    for doc in docs:
        for lineno, span in _prose_spans(doc):
            ref = _REF.match(span)
            if ref is not None:
                name, member = ref.groups()
            elif (ref := _INSTANCE.match(span)) is not None:
                name, member = INSTANCES[ref[1]], ref[2]
            else:
                continue
            if name in classes:
                stale = member is not None and not _resolves(
                    classes, name, member)
            else:
                stale = (_CAMEL.fullmatch(name) is not None
                         and not hasattr(builtins, name))
            if stale:
                found.append(f"{_relpath(doc)}:{lineno}: `{span}`")
    return found


def _top_level(tree):
    """``{name: ClassDef or None}`` of a module's top-level defs,
    classes and assigned names."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[stmt.name] = None
        elif isinstance(stmt, ast.ClassDef):
            names[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names[node.id] = None
    return names


def _find_module(path, files):
    """The files ``path`` can mean: itself under one of
    :data:`PATH_ROOTS`, else every repo file it is a path suffix of."""
    for root in PATH_ROOTS:
        if root + path in files:
            return [root + path]
    return [name for name in files if name.endswith("/" + path)]


def stale_paths(docs=None):
    """``["doc:line: `span`", ...]`` for each backticked ``path.py`` or
    ``path.py::name[.member]`` outside fenced blocks that names no repo
    file, or a name none of its files defines at top level (or, with a
    member, a class without it)."""
    if docs is None:
        docs = _name_docs()
    files = {path.relative_to(REPO).as_posix()
             for path in REPO.rglob("*.py")
             if not any(part.startswith(".") or part == "__pycache__"
                        for part in path.relative_to(REPO).parts)}
    tops = {}

    def defines(module, name, member):
        if module not in tops:
            tops[module] = _top_level(ast.parse((REPO / module).read_text()))
        cls = tops[module].get(name, False)
        return cls is not False and (member is None or (
            cls is not None and member in _members(cls)))

    found = []
    for doc in docs:
        for lineno, span in _prose_spans(doc):
            ref = _PATH.fullmatch(span)
            if ref is None:
                continue
            path, name, member = ref.groups()
            modules = _find_module(path, files)
            if not modules or name is not None and not any(
                    defines(module, name, member) for module in modules):
                found.append(f"{_relpath(doc)}:{lineno}: `{span}`")
    return found


def _collapse(text):
    """``text`` with its whitespace collapsed, and the ``#`` that
    continues a wrapped comment taken out."""
    return " ".join(re.sub(r"\n[ \t]*#+", "\n", text).split())


def _sections(design=DESIGN):
    """``{n: [anchor, ...]}``: each ``## n.`` section of ``design`` and
    the ``###`` headings and bold or italic lead-ins inside it, with
    whitespace collapsed."""
    text = Path(design).read_text()
    starts = list(_SECTION.finditer(text))
    sections = {}
    for k, start in enumerate(starts):
        end = starts[k + 1].start() if k + 1 < len(starts) else len(text)
        sections[int(start.group(1))] = [
            _collapse(next(group for group in anchor.groups() if group))
            for anchor in _ANCHOR.finditer(text, start.end(), end)]
    return sections


def _section_docs():
    """The :data:`SECTION_DOCS` files, in glob order."""
    return [path for pattern in SECTION_DOCS
            for path in sorted(REPO.glob(pattern))]


def design_citations(docs=None, design=DESIGN):
    """``[(where, n, title or None), ...]``: every ``DESIGN §n ["title"]``
    citation in ``docs`` (default :data:`SECTION_DOCS`) and every
    ``§n "title"`` cross-reference inside ``design``; ``where`` is
    ``doc:line``.  A paper citation (``paper §3.2``) has neither form."""
    if docs is None:
        docs = _section_docs()
    found = []
    for doc, pattern in [(doc, _CITE) for doc in docs] + [(design, _XREF)]:
        text = Path(doc).read_text()
        for cite in pattern.finditer(text):
            lineno = text.count("\n", 0, cite.start()) + 1
            title = cite.group("title")
            found.append((f"{_relpath(doc)}:{lineno}", int(cite.group(1)),
                          title and _collapse(title)))
    return found


def stale_sections(docs=None, design=DESIGN):
    """``['doc:line: §n "title"', ...]`` for each citation of
    :func:`design_citations` whose number names no ``## n.`` section of
    ``design``, or whose title starts no heading or lead-in of that
    section."""
    sections = _sections(design)
    return [f"{where}: §{n}" + (f' "{title}"' if title else "")
            for where, n, title in design_citations(docs, design)
            if n not in sections or title is not None and not any(
                anchor.startswith(title) for anchor in sections[n])]


def design_shape(design=DESIGN, max_lines=DESIGN_MAX_LINES):
    """What keeps ``design`` from describing the system alone: each
    ``PR n`` or ``ROADMAP`` in it (``doc:line: 'match'``), and its line
    count if that is over ``max_lines``."""
    lines = Path(design).read_text().splitlines()
    found = [f"{_relpath(design)}:{lineno}: {match.group()!r}"
             for lineno, line in enumerate(lines, 1)
             for match in _HISTORY.finditer(line)]
    if len(lines) > max_lines:
        found.append(f"{_relpath(design)} has {len(lines)} lines, over "
                     f"the ceiling of {max_lines}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--docs", nargs="+",
        default=[str(REPO / doc) for doc in DEFAULT_DOCS],
        help="markdown files to scan (default: README.md and "
             "docs/debugging.md)")
    args = parser.parse_args(argv)

    failures = []
    total = 0
    smoked = {}
    for path in args.docs:
        doc = Path(path)
        if not doc.exists():
            print(f"check_docs: {doc} does not exist", file=sys.stderr)
            return 2
        pairs = extract_commands(doc)
        commands = [command for command, _ in pairs]
        if not commands:
            failures.append(f"{doc.name} has no shell code blocks — its "
                            f"command walkthrough is gone")
            continue
        total += len(commands)
        try:
            relpath = doc.resolve().relative_to(REPO).as_posix()
        except ValueError:
            relpath = doc.name
        for required in sorted(REQUIRED.get(relpath, set()) - set(commands)):
            failures.append(f"required command missing from "
                            f"{relpath}: {required!r}")
        for command, output in pairs:
            if command not in SMOKE:
                failures.append(
                    f"{relpath} command {command!r} is unknown to "
                    f"check_docs.py — add a smoke mapping for it in the "
                    f"same commit")
                continue
            if command not in smoked:
                smoked[command] = run(command)
                if smoked[command] is None:
                    failures.append(f"smoke run failed: {command!r}")
            stdout = smoked[command]
            if output and "repro.debug" in command and stdout is not None:
                drift = missing_output(output, stdout)
                if drift is not None:
                    failures.append(
                        f"{relpath} shows output {command!r} does not "
                        f"print (in that order): {drift!r}")

    for stale in stale_names():
        failures.append(f"{stale} names no class or member in src/")
    for stale in stale_paths():
        failures.append(f"{stale} names no module or top-level name")
    for stale in stale_sections():
        failures.append(f"{stale} names no section, heading or lead-in "
                        f"of DESIGN.md")
    for shape in design_shape():
        failures.append(f"{shape}: DESIGN.md describes the system; "
                        f"numbers go to the pairs ledger or CHANGES.md")

    if failures:
        print(f"\ncheck_docs: {len(failures)} documentation drift(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_docs: all {total} documented commands "
          f"({len(smoked)} unique) smoke-tested ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
