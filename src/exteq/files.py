"""JSON file formats for presentations, extensions, equation systems,
automata and certificates.

Every artifact carries a "format_version" field; loaders validate the
schema and report failures with the JSON path of the offending field.
Writers exist only for what the program saves: the automata and kernel
elements of an `exteq build` file, and certificates through save_json.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .abelian import FGAElement, FGAGroup
from .automata import FSA
from .errors import SchemaError
from .extension import RHO, CentralExtension, ExtElement
from .words import Alphabet, Presentation

FORMAT_VERSION = 1


def _fail(path: str, why: str):
    raise SchemaError(f"{path}: {why}")


def is_integer(value) -> bool:
    """Whether a loaded JSON value is an integer: bool is a subclass of
    int in Python, but JSON true and false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(obj, key, kind, path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        _fail(f"{path}.{key}", "missing")
    value = obj[key]
    if kind is not None and (
        not isinstance(value, kind) or (kind is int and not is_integer(value))
    ):
        _fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _check_version(obj, path: str):
    v = _expect(obj, "format_version", int, path)
    if v != FORMAT_VERSION:
        _fail(f"{path}.format_version", f"unsupported version {v}")


def _int_list(value, path: str) -> list[int]:
    if not isinstance(value, list) or not all(is_integer(x) for x in value):
        _fail(path, "expected a list of integers")
    return value


# -- abelian groups and elements ----------------------------------------


def group_from_json(obj, path: str = "kernel") -> FGAGroup:
    rank = _expect(obj, "rank", int, path)
    torsion = _int_list(_expect(obj, "torsion", list, path), f"{path}.torsion")
    try:
        return FGAGroup(rank, tuple(torsion))
    except ValueError as e:
        _fail(path, str(e))


def kernel_element_to_json(a: FGAElement) -> dict:
    return {"free": list(a.free), "torsion": list(a.tors)}


def kernel_element_from_json(obj, group: FGAGroup, path: str) -> FGAElement:
    free = _int_list(_expect(obj, "free", list, path), f"{path}.free")
    tors = _int_list(_expect(obj, "torsion", list, path), f"{path}.torsion")
    if len(free) != group.rank or len(tors) != len(group.torsion):
        _fail(path, f"coordinate shape does not match rank {group.rank} "
                    f"torsion {list(group.torsion)}")
    return group.element(free, tors)


# -- presentations and extensions ---------------------------------------


def _fraction(obj, key: str, path: str):
    if obj.get(key) is None:
        return None
    text = _expect(obj, key, str, path)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail(f"{path}.{key}", f"expected a fraction, got {text!r}")


def presentation_from_json(obj, path: str = "presentation") -> Presentation:
    _check_version(obj, path)
    gens = _expect(obj, "generators", list, path)
    if not gens or not all(isinstance(x, str) for x in gens):
        _fail(f"{path}.generators", "expected a nonempty list of letters")
    try:
        alpha = Alphabet.from_generators(gens)
    except ValueError as e:
        _fail(f"{path}.generators", str(e))
    relators = _expect(obj, "relators", list, path)
    for i, r in enumerate(relators):
        if not isinstance(r, str):
            _fail(f"{path}.relators[{i}]", "expected a word string")
        for ch in r:
            if ch not in alpha.letters:
                _fail(f"{path}.relators[{i}]", f"letter {ch!r} not in alphabet")
        if not r or not alpha.is_freely_reduced(r) or r[0] == alpha.inverse[r[-1]]:
            _fail(f"{path}.relators[{i}]", "expected a nonempty cyclically reduced word")
    return Presentation(
        alpha,
        tuple(relators),
        delta=_fraction(obj, "delta", path),
        sc_fraction=_fraction(obj, "sc_fraction", path),
    )


def extension_from_json(obj, path: str = "extension") -> CentralExtension:
    _check_version(obj, path)
    base = presentation_from_json(
        _expect(obj, "presentation", dict, path), f"{path}.presentation"
    )
    kernel = group_from_json(_expect(obj, "kernel", dict, path), f"{path}.kernel")
    raw = _expect(obj, "relator_values", list, path)
    if len(raw) != len(base.relators):
        _fail(f"{path}.relator_values",
              f"expected {len(base.relators)} values, got {len(raw)}")
    values = tuple(
        kernel_element_from_json(v, kernel, f"{path}.relator_values[{i}]")
        for i, v in enumerate(raw)
    )
    return CentralExtension(base, kernel, values)


# -- equation systems ---------------------------------------------------


def ext_element_from_json(obj, ext: CentralExtension, path: str) -> ExtElement:
    g = _expect(obj, "g", str, path)
    for ch in g:
        if ch not in ext.base.alphabet.letters:
            _fail(f"{path}.g", f"letter {ch!r} not in alphabet")
    a = kernel_element_from_json(_expect(obj, "a", dict, path), ext.kernel, f"{path}.a")
    return ExtElement(ext, RHO, g, a)


def equation_system_from_json(obj, ext: CentralExtension, path: str = "equations"):
    from .reduction import EquationSystem

    _check_version(obj, path)
    variables = _expect(obj, "variables", list, path)
    if not all(isinstance(v, str) for v in variables):
        _fail(f"{path}.variables", "expected a list of names")
    constants = {
        k: ext_element_from_json(v, ext, f"{path}.constants.{k}")
        for k, v in _expect(obj, "constants", dict, path).items()
    }
    equations = _expect(obj, "equations", list, path)
    if not all(isinstance(e, str) for e in equations):
        _fail(f"{path}.equations", "expected a list of token strings")
    try:
        return EquationSystem(tuple(variables), constants, tuple(equations))
    except Exception as e:
        _fail(path, str(e))


# -- automata -----------------------------------------------------------


def automaton_to_json(M: FSA) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "generators": [x for x in M.alphabet.letters if x == x.lower()],
        "n_states": M.n_states,
        "initial": M.initial,
        "accepting": sorted(M.accepting),
        "transitions": [
            {x: row[k] for k, x in enumerate(M.alphabet.letters)}
            for row in M.transitions
        ],
    }


def automaton_from_json(obj, path: str = "automaton") -> tuple[FSA, dict]:
    """Load an automaton; a partial transition table is completed with a
    fresh sink state, and the report says whether that happened."""
    _check_version(obj, path)
    gens = _expect(obj, "generators", list, path)
    alpha = Alphabet.from_generators(gens)
    n = _expect(obj, "n_states", int, path)
    initial = _expect(obj, "initial", int, path)
    accepting = _int_list(_expect(obj, "accepting", list, path), f"{path}.accepting")
    raw = _expect(obj, "transitions", list, path)
    if len(raw) != n:
        _fail(f"{path}.transitions", f"expected {n} rows, got {len(raw)}")
    if not 0 <= initial < n:
        _fail(f"{path}.initial", f"state {initial} out of range")
    for s in accepting:
        if not 0 <= s < n:
            _fail(f"{path}.accepting", f"state {s} out of range")
    partial = any(
        x not in row for row in raw for x in alpha.letters
    )
    sink = n if partial else None
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, dict):
            _fail(f"{path}.transitions[{i}]", "expected an object")
        out = []
        for x in alpha.letters:
            if x in row:
                t = row[x]
                if not is_integer(t) or not 0 <= t < n:
                    _fail(f"{path}.transitions[{i}].{x}", f"bad target {t!r}")
                out.append(t)
            else:
                out.append(sink)
        rows.append(tuple(out))
    if partial:
        rows.append(tuple(sink for _ in alpha.letters))
        n += 1
    M = FSA(alpha, tuple(rows), initial, frozenset(accepting))
    return M, {"completed_with_sink": partial, "n_states": n}


# -- top-level IO -------------------------------------------------------


def load_json(path: str):
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SchemaError(f"{path}: key {key!r} repeated in one object")
            obj[key] = value
        return obj

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON ({e})")
    except OSError as e:
        raise SchemaError(f"{path}: {e}")


def save_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
