"""Properties of the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cloudmarket"


def test_no_invariant_rests_on_assert():
    # `python -O` strips assert statements, so every check in the
    # simulator must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
