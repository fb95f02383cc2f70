"""Every name a module of the package imports is used in that module.

A deletion that leaves an import behind shows up here, not as a lint
finding nobody runs.  A name counts as used when it is read anywhere in
the module, including inside a string annotation.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exteq"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: imported but never used: {unused}"


PERFBENCH = SRC.parent.parent / "perfbench"

# Module-level names the program does not read yet, with why they stay.
UNREFERENCED_OK = {
    "files.automaton_from_json": "the reusable pipeline artifact (ROADMAP item 6) loads it",
    "files.extension_to_json": "the reusable pipeline artifact (ROADMAP item 6) writes it",
    "files.equation_system_to_json": "the reusable pipeline artifact (ROADMAP item 6) writes it",
    "instances.dihedral_z": "a bundled instance, data/dihedral_z.json's extension",
}


def test_no_definition_only_tests_use():
    """Every module-level function and class of the package is named in
    src/ or perfbench/ outside its own definition, so code that only a
    test calls lives in tests/."""
    texts = {p: p.read_text() for p in MODULES + sorted(PERFBENCH.glob("*.py"))}
    unused = []
    for path in MODULES:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = "\n".join(lines[: start - 1] + lines[node.end_lineno :])
            named = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                named.search(outside if p == path else text) for p, text in texts.items()
            ) and f"{path.stem}.{node.name}" not in UNREFERENCED_OK:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"defined in src/ but named only by tests: {unused}"
