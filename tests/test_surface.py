"""Every public name in the package occurs in the package outside its own definition.

A function, method or class that only tests reach is a second path no run
takes; it is either deleted or named here as a test probe.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "epitrace"

# Read-only views that tests use to look into a run; the pipeline never needs them.
TEST_PROBES = {"position_at", "stored_count", "oldest_age", "held_object_ids"}


def _is_cli_command(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else None
        if isinstance(func, ast.Attribute) and func.attr == "command" and isinstance(func.value, ast.Name) and func.value.id == "main":
            return True
    return False


def _unreferenced() -> set[str]:
    """Public module-level functions and classes, and their methods, named nowhere else in the package."""
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unreferenced = set()
    for path, text in texts.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text, filename=str(path)).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node, *members]:
                if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if defn.name.startswith("_") or _is_cli_command(defn):
                    continue
                pattern = re.compile(rf"\b{defn.name}\b")
                own = "".join(lines[defn.lineno - 1 : defn.end_lineno])
                total = sum(len(pattern.findall(t)) for t in texts.values())
                if total == len(pattern.findall(own)):
                    unreferenced.add(defn.name)
    return unreferenced


def test_every_public_name_occurs_outside_its_definition():
    dead = sorted(_unreferenced() - TEST_PROBES)
    assert dead == [], f"public names nothing in the package refers to: {dead}"


def test_every_test_probe_is_still_defined_and_unreferenced():
    assert _unreferenced() & TEST_PROBES == TEST_PROBES
