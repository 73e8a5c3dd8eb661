"""Module boundaries of the package: a module's private names stay its own,
so the decision a private helper makes (a block size, say) has one home."""

import ast
from pathlib import Path

import opinesum


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(Path(opinesum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "opinesum"
            ):
                found += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
