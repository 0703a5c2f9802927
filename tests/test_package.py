"""The package ships only what it runs: every function, method and class
defined under ``src/qubolab`` is named somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import qubolab

PACKAGE = Path(qubolab.__file__).resolve().parent


def unnamed_definitions(package: Path) -> dict:
    """Definitions (name -> "file:line") that no bare name, attribute or
    import in ``package`` names; dunder methods are called by Python."""
    defined, named = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return {
        name: where for name, where in defined.items()
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_is_named_in_the_package():
    # a helper only the tests call belongs in tests/util.py
    assert unnamed_definitions(PACKAGE) == {}


def test_scan_flags_a_definition_nothing_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.method()\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def orphan(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return os.sep\n"
    )
    (tmp_path / "b.py").write_text("from a import Used\n")
    assert unnamed_definitions(tmp_path) == {"orphan": "a.py:7"}
