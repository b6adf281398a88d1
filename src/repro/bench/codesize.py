"""Table 3 analogue: implementation code size by component.

The paper counts lines containing semicolons per component of
Determinator and its PIOS instructional subset.  The Python analogue
counts non-blank, non-comment source lines per component of this
reproduction, mapped onto the paper's component rows.
"""

import os

#: Paper component -> list of package-relative source directories.
COMPONENTS = {
    "Kernel core": ["kernel", "mem"],
    "Hardware/device drivers": ["timing", "cluster"],
    "User-level runtime": ["runtime"],
    "Generic library code": ["common", "bench/api.py", "bench/harness.py"],
    "User-level programs": ["bench/workloads", "bench/cluster_workloads.py",
                            "bench/figures.py", "bench/codesize.py"],
}


def _iter_py_files(path):
    if os.path.isfile(path):
        yield path
        return
    for root, _dirs, files in os.walk(path):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def count_lines(path):
    """Non-blank, non-comment (and non-docstring-only) lines in one file."""
    total = 0
    in_doc = False
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if in_doc:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_doc = False
                continue
            if stripped.startswith("#"):
                continue
            if stripped.startswith(('"""', "'''")):
                quote = stripped[:3]
                body = stripped[3:]
                if not (body.endswith(quote) and len(body) >= 3) and \
                        not stripped == quote * 2:
                    if not body.endswith(quote):
                        in_doc = True
                continue
            total += 1
    return total


def component_sizes():
    """Dict component -> source-line count, plus a 'Total' entry."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sizes = {}
    for component, paths in COMPONENTS.items():
        count = 0
        for rel in paths:
            full = os.path.join(src_root, rel)
            if not os.path.exists(full):
                continue
            for path in _iter_py_files(full):
                count += count_lines(path)
        sizes[component] = count
    sizes["Total"] = sum(sizes.values())
    return sizes


def table3():
    """Formatted Table 3 analogue (component, lines)."""
    sizes = component_sizes()
    rows = [
        "Component                       Source lines",
        "-" * 45,
    ]
    for component, count in sizes.items():
        if component == "Total":
            rows.append("-" * 45)
        rows.append(f"{component:30s} {count:>12,}")
    return "\n".join(rows), sizes
