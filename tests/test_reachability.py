"""Every public name in the library is reached from outside the tests.

A public top-level function or class, or a public method or property, in
`src/cvxagg/*.py` must appear as a whole word somewhere other than its own
`def`/`class` line: in the library, the CI workflow, or the benchmark
workload and tracer.  A name only the tests call fails: it belongs in
`tests/_support.py`, unless a queued ROADMAP item will call it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "cvxagg"
SEARCHED = [
    *sorted(LIBRARY.glob("*.py")),
    ROOT / ".github" / "workflows" / "tests.yml",
    ROOT / "perfbench" / "workload.py",
    ROOT / "perfbench" / "tracing.py",
]
# names that only the tests call today, each kept for the ROADMAP item that
# will call it: the lower-bound family's sparsity level (item 2), the
# enumeration of a sample's outcomes (item 5), the psi_c versus phi_n path
# (item 9) and the fixed point lambda* (item 10)
ALLOWED = {"choose_m", "enumerate_net", "gap_ratio", "fixed_point"}


def _public_definitions(path: Path):
    """(name, line number) of each public top-level def/class and public method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield member.name, member.lineno


def test_every_public_name_is_reached():
    lines = {path: path.read_text().splitlines() for path in SEARCHED}
    unreached = []
    for path in sorted(LIBRARY.glob("*.py")):
        for name, lineno in _public_definitions(path):
            if name in ALLOWED:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            reached = any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, start=1)
                if not (other == path and number == lineno)
            )
            if not reached:
                unreached.append(f"{path.name}:{lineno} {name}")
    assert not unreached, f"public names reached only by their own unit tests: {unreached}"
