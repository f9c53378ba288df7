import ast
from pathlib import Path

import semistab

SRC = Path(semistab.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"
