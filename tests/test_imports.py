"""Every name a module of the package imports is used in that module.

A deletion that leaves an import behind shows up here, not as a lint
finding nobody runs.  A name counts as used when it is read anywhere in
the module, including inside a string annotation.
"""

import ast
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
PACKAGE = {"exteq"} | {p.stem for p in MODULES}

# Module-level names the program does not read yet, with why they stay.
UNREFERENCED_OK = {
    "files.automaton_from_json": "the reusable pipeline artifact (ROADMAP item 6) loads it",
    "instances.dihedral_z": "a bundled instance, data/dihedral_z.json's extension",
}


def local_names(fn: ast.AST) -> set[str]:
    """Every name bound anywhere inside a function or lambda: its
    parameters and each assignment, loop, import or definition target,
    less the names it declares global."""
    bound, declared = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not fn:
                bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared |= set(node.names)
    return bound - declared


def global_references(tree: ast.AST):
    """(name, line) for each place a module may name a module-level
    definition: a read of a name no enclosing function binds, an import,
    an attribute of a package module (`files.load_json`), or a string
    that is the name or starts "name." (perfbench hooks functions by
    name).  A local rebinding (`free_reduce = alphabet.free_reduce`) and
    an attribute of any other object (`eq.split()`) do not count."""

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                yield node.id, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in PACKAGE) or (
                isinstance(owner, ast.Attribute) and owner.attr in PACKAGE
            ):
                yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            head = node.value.split(".")[0]
            if head.isidentifier():
                yield head, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, local)

    yield from visit(tree, frozenset())


def test_no_definition_only_tests_use():
    """Every module-level function and class of the package is named in
    src/ or perfbench/ outside its own definition, so code that only a
    test calls lives in tests/."""
    refs = {
        p: list(global_references(ast.parse(p.read_text())))
        for p in MODULES + sorted(PERFBENCH.glob("*.py"))
    }
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            named = any(
                name == node.name and (p != path or not start <= line <= node.end_lineno)
                for p, found in refs.items()
                for name, line in found
            )
            if not named and f"{path.stem}.{node.name}" not in UNREFERENCED_OK:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"defined in src/ but named only by tests: {unused}"


def stored_private_attributes(tree: ast.AST) -> dict[str, int]:
    """Each private attribute a module stores on self, as `self._x = ...`
    or `object.__setattr__(self, "_x", ...)`, with its first line."""
    out = {}
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                name = node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            name = node.args[1].value
        if name and name.startswith("_") and not name.startswith("__"):
            out.setdefault(name, node.lineno)
    return out


def read_attributes(tree: ast.AST) -> set[str]:
    """Every attribute the module reads, as `obj._x` or by name through
    getattr."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            out.add(node.args[1].value)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_write_only_private_attributes(path):
    """A private attribute a module stores is read somewhere in that
    module, so a deletion that leaves its store behind shows up here."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_attributes(tree)
    unread = {
        name: line
        for name, line in stored_private_attributes(tree).items()
        if name not in read
    }
    assert not unread, f"{path.name}: stored but never read: {unread}"
