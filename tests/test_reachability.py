"""Every public name in the library is reached from outside its own unit tests.

A public top-level function or class, or a public method or property, in
`src/cvxagg/*.py` must appear as a whole word somewhere other than its own
`def`/`class` line: in the library, the scripts, the benchmark workload and
tracer, or the acceptance suite.  A name only its own unit tests call fails.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "cvxagg"
SEARCHED = [
    *sorted(LIBRARY.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "perfbench" / "workload.py",
    ROOT / "perfbench" / "tracing.py",
    ROOT / "tests" / "test_acceptance.py",
]
# the sparsity level of the planned lower-bound problem family (ROADMAP item 2)
ALLOWED = {"choose_m"}


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
