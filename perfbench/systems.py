"""Seeded equation systems over the finite extensions and their
brute-force reference verdicts.

The program under test only ever sees the generated systems, as the same
JSON objects `exteq solve` reads.  The reference never touches the
reduction: it multiplies out every assignment in E^n through a
multiplication table of E, built once per extension from the section
coordinate group law and checked to be a group of the expected order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from exteq.extension import RHO, ExtElement

VARIABLES = ("x", "y", "w")
FINITE_EXTENSIONS = ("quaternion8", "modular16")

# the README's `solve` example: x^2 = z over Q8
README_SYSTEM = {
    "format_version": 1,
    "variables": ["x"],
    "constants": {"z": {"g": "", "a": {"free": [], "torsion": [1]}}},
    "equations": ["x x Z"],
}


class GroupTable:
    """Multiplication table of a finite central extension E."""

    def __init__(self, ext):
        if ext.kernel.rank:
            raise ValueError("brute force needs a finite kernel")
        kernel = ext.kernel
        gens = [
            ExtElement(ext, RHO, x, kernel.zero())
            for x in ext.base.alphabet.letters
            if x == x.lower()
        ]
        for i in range(len(kernel.torsion)):
            unit = [0] * len(kernel.torsion)
            unit[i] = 1
            gens.append(ExtElement(ext, RHO, "", kernel.element([], unit)))
        one = ExtElement(ext, RHO, "", kernel.zero())
        elements = [one]
        index = {self._key(one): 0}
        for e in elements:  # grows while iterating: closure under generators
            for s in gens:
                f = e * s
                if self._key(f) not in index:
                    index[self._key(f)] = len(elements)
                    elements.append(f)
        n = len(elements)
        self.elements = elements
        self.index = index
        self.mul = [[index[self._key(a * b)] for b in elements] for a in elements]
        self.inv = [row.index(0) for row in self.mul]
        self.central = frozenset(i for i, e in enumerate(elements) if e.g == "")
        if len({e.g for e in elements}) * kernel.order != n:
            raise ValueError("closure is not an extension of its base by the kernel")
        mul = self.mul
        for a, b, c in itertools.product(range(n), repeat=3):
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise ValueError("multiplication table is not associative")

    @staticmethod
    def _key(e):
        return e.g, e.a.coords()

    def of(self, e) -> int:
        return self.index[self._key(e)]


@dataclass(frozen=True)
class Reference:
    """What brute force over E^n says about one system."""

    e_solvable: bool  # some assignment in E solves every equation
    base_solvable: bool  # some assignment solves them modulo the kernel


def _compile(obj, table: GroupTable, ext):
    consts = {}
    for name, c in obj["constants"].items():
        a = ext.kernel.element(c["a"]["free"], c["a"]["torsion"])
        consts[name] = table.of(ExtElement(ext, RHO, c["g"], a))
    var_pos = {v: i for i, v in enumerate(obj["variables"])}
    eqs = []
    for eq in obj["equations"]:
        toks = []
        for tok in eq.split():
            inverted = tok[0].isupper()
            sym = tok.lower() if inverted else tok
            if sym in var_pos:
                toks.append((True, var_pos[sym], inverted))
            else:
                c = consts[sym]
                toks.append((False, table.inv[c] if inverted else c, False))
        eqs.append(toks)
    return eqs


def _product(toks, values, table: GroupTable) -> int:
    acc = 0
    for is_var, k, inverted in toks:
        v = values[k] if is_var else k
        acc = table.mul[acc][table.inv[v] if inverted else v]
    return acc


def evaluate(obj, table: GroupTable, ext, values) -> list[int]:
    """The element each equation of `obj` takes under `values`, a list
    of table indices in the order of obj["variables"]."""
    return [_product(toks, values, table) for toks in _compile(obj, table, ext)]


def reference(obj, table: GroupTable, ext) -> Reference:
    eqs = _compile(obj, table, ext)
    base_solvable = False
    for values in itertools.product(range(len(table.elements)),
                                    repeat=len(obj["variables"])):
        products = [_product(toks, values, table) for toks in eqs]
        if all(p in table.central for p in products):
            base_solvable = True
            if all(p == 0 for p in products):
                return Reference(True, True)
    return Reference(False, base_solvable)


def random_system(rng: random.Random, table: GroupTable) -> dict:
    """One system in `exteq solve` JSON: 1-3 variables, 1-3 equations of
    2-5 tokens, 1-2 constants drawn uniformly from E."""
    variables = list(VARIABLES[:rng.randint(1, 3)])
    constants = {}
    for i in range(rng.randint(1, 2)):
        e = rng.choice(table.elements)
        constants[f"c{i}"] = {"g": e.g, "a": {"free": [], "torsion": list(e.a.tors)}}
    symbols = variables + list(constants)
    equations = []
    for _ in range(rng.randint(1, 3)):
        toks = [rng.choice(symbols) for _ in range(rng.randint(2, 5))]
        equations.append(" ".join(t.upper() if rng.random() < 0.5 else t for t in toks))
    return {"format_version": 1, "variables": variables,
            "constants": constants, "equations": equations}
