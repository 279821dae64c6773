"""Every public name in the library is reached from outside the tests.

A public top-level function or class, or a public method or property, in
`src/cvxagg/*.py` must be used in code somewhere outside its own
`def`/`class`: in the library, or the benchmark workload and tracer, as a
name (`ast.Name`) or an attribute (`ast.Attribute`).  Comments, strings
such as `__all__`'s, and imports do not count.  The CI workflow is not
Python, so there a name counts when it appears as a whole word.  A name
only the tests call fails: it belongs in `tests/_support.py`, unless a
queued ROADMAP item will call it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "cvxagg"
SEARCHED = [
    *sorted(LIBRARY.glob("*.py")),
    ROOT / "perfbench" / "workload.py",
    ROOT / "perfbench" / "tracing.py",
]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# names that only the tests call today, each kept for the ROADMAP item that
# will call it: the lower-bound family's sparsity level (item 2), the
# enumeration of a sample's outcomes (item 5), the psi_c versus phi_n path
# (item 9) and the fixed point lambda* (item 10)
ALLOWED = {"choose_m", "enumerate_net", "gap_ratio", "fixed_point"}


def _public_definitions(tree: ast.Module):
    """The node of each public top-level def/class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield member


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text()) for path in SEARCHED}
    uses = defaultdict(list)  # name -> each ast.Name or ast.Attribute node that uses it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
    workflow = WORKFLOW.read_text()
    unreached = []
    for path in sorted(LIBRARY.glob("*.py")):
        for definition in _public_definitions(trees[path]):
            name = definition.name
            if name in ALLOWED:
                continue
            own = {id(node) for node in ast.walk(definition)}
            in_code = any(id(node) not in own for node in uses[name])
            if not in_code and not re.search(rf"\b{re.escape(name)}\b", workflow):
                unreached.append(f"{path.name}:{definition.lineno} {name}")
    assert not unreached, f"public names reached only by their own unit tests: {unreached}"
