"""Finitely generated abelian groups Z^n + Z_d1 + ... + Z_dm.

Provides exact element arithmetic, the torsion-doubling pushout, the four
structure maps (iota1, iota3, iota4 and the parity map), Smith normal form
over the integers, and a linear-system solver used by the reduction stage.
All arithmetic is arbitrary-precision; torsion residues are kept
normalized in [0, d).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import GroupMismatch, NotInImage


@dataclass(frozen=True)
class FGAGroup:
    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0 or any(d < 2 for d in self.torsion):
            raise ValueError("need rank >= 0 and torsion entries >= 2")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))

    def element(self, free: Sequence[int] = (), tors: Sequence[int] = ()) -> "FGAElement":
        return FGAElement(self, tuple(int(x) for x in free), tuple(int(t) for t in tors))

    def zero(self) -> "FGAElement":
        return self.element([0] * self.rank, [0] * len(self.torsion))

    def pushout(self) -> "FGAGroup":
        """Same rank, every torsion order doubled; built on the first call
        and kept in one slot on the group, outside its fields."""
        g = self.__dict__.get("_pushout")
        if g is None:
            # doubling keeps a valid group valid, so __post_init__ is skipped
            g = object.__new__(FGAGroup)
            g.__dict__.update(rank=self.rank, torsion=tuple(2 * d for d in self.torsion))
            self.__dict__["_pushout"] = g
        return g

    def parity(self) -> "FGAGroup":
        """Pa(A) = Z_2^rank + torsion, the codomain of the parity map, as a
        rank-0 group; built on the first call and kept like pushout()."""
        g = self.__dict__.get("_parity")
        if g is None:
            g = self.__dict__["_parity"] = FGAGroup(0, (2,) * self.rank + self.torsion)
        return g

    def elements(self):
        """Every element with free coordinates 0: all of a finite group."""
        from itertools import product

        for ts in product(*[range(d) for d in self.torsion]):
            yield self.element([0] * self.rank, ts)

    @property
    def order(self) -> Optional[int]:
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n


@dataclass(frozen=True)
class FGAElement:
    group: FGAGroup
    free: tuple[int, ...]
    tors: tuple[int, ...]

    def __post_init__(self):
        if len(self.free) != self.group.rank or len(self.tors) != len(self.group.torsion):
            raise ValueError("coordinate count mismatch")
        if self.tors:
            object.__setattr__(
                self,
                "tors",
                tuple(t % d for t, d in zip(self.tors, self.group.torsion)),
            )

    @classmethod
    def _of(cls, group: FGAGroup, free: tuple, tors: tuple) -> "FGAElement":
        """Element from coordinate tuples already of the group's shape;
        normalizes the torsion residues but skips the shape check."""
        e = object.__new__(cls)
        if tors:
            tors = tuple(t % d for t, d in zip(tors, group.torsion))
        e.__dict__.update(group=group, free=free, tors=tors)
        return e

    def _check(self, other: "FGAElement"):
        if self.group != other.group:
            raise GroupMismatch(f"{self.group} vs {other.group}")

    def __add__(self, other: "FGAElement") -> "FGAElement":
        if other.group is not self.group:
            self._check(other)
        return FGAElement._of(
            self.group,
            tuple(map(operator.add, self.free, other.free)),
            tuple(map(operator.add, self.tors, other.tors)),
        )

    def __neg__(self) -> "FGAElement":
        return FGAElement._of(
            self.group,
            tuple(map(operator.neg, self.free)),
            tuple(map(operator.neg, self.tors)),
        )

    def __sub__(self, other: "FGAElement") -> "FGAElement":
        if other.group is not self.group:
            self._check(other)
        return FGAElement._of(
            self.group,
            tuple(map(operator.sub, self.free, other.free)),
            tuple(map(operator.sub, self.tors, other.tors)),
        )

    def __mul__(self, k: int) -> "FGAElement":
        return FGAElement._of(
            self.group,
            tuple(k * x for x in self.free),
            tuple(k * x for x in self.tors),
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.tors)

    def coords(self) -> tuple[int, ...]:
        return self.free + self.tors


def pa(a: FGAElement) -> FGAElement:
    """Parity map into A.parity(): free coordinates mod 2, torsion passed
    through."""
    return FGAElement._of(a.group.parity(), (), a.free + a.tors)


def iota1(a: FGAElement) -> FGAElement:
    """Doubling embedding of A into its pushout A'."""
    return FGAElement._of(
        a.group.pushout(), tuple(2 * x for x in a.free), tuple(2 * t for t in a.tors)
    )


def iota1_inverse(aprime: FGAElement) -> FGAElement:
    """Unique preimage under iota1, or NotInImage.

    Defined iff every free coordinate is even and every torsion residue is
    even as a residue mod 2d.
    """
    g = aprime.group
    if any(d % 2 for d in g.torsion):
        raise GroupMismatch("not a pushout group (odd torsion order)")
    base = FGAGroup(g.rank, tuple(d // 2 for d in g.torsion))
    if any(x % 2 for x in aprime.free) or any(t % 2 for t in aprime.tors):
        raise NotInImage(f"{aprime.coords()} has an odd coordinate")
    return base.element(
        [x // 2 for x in aprime.free], [t // 2 for t in aprime.tors]
    )


def in_iota1_image(aprime: FGAElement) -> bool:
    return not (any(x % 2 for x in aprime.free) or any(t % 2 for t in aprime.tors))


def iota3(a: FGAElement) -> FGAElement:
    """Coordinate-wise reinterpretation of A inside A' (not a homomorphism:
    torsion residues in [0, d) are read as residues mod 2d)."""
    return FGAElement._of(a.group.pushout(), a.free, a.tors)


def iota4(d: FGAElement, kernel: FGAGroup) -> FGAElement:
    """Coordinate-wise reinterpretation of a parity value of the kernel
    inside its pushout A' (not a homomorphism).  The kernel is passed, not
    read off d: a rank-0 kernel is its own parity group."""
    r = kernel.rank
    return FGAElement._of(kernel.pushout(), d.tors[:r], d.tors[r:])


# -- Smith normal form and linear systems -------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M: Sequence[Sequence[int]]):
    """Return (U, D, V) with U*M*V = D, U and V unimodular, D diagonal
    with each diagonal entry nonnegative and dividing the next."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [list(map(int, row)) for row in M]
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        A[dst] = [x + k * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + k * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < rows and t < cols:
        # pick the nonzero entry of smallest magnitude in the submatrix
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            progressed = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        progressed = True
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        progressed = True
            if not progressed and not any(A[i][t] for i in range(t + 1, rows)) and not any(
                A[t][j] for j in range(t + 1, cols)
            ):
                break
        if A[t][t] < 0:
            negate_row(t)
        # divisibility: fold any non-multiple below-right into this pivot
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % A[t][t]:
                    add_row(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        t += 1
    return U, A, V


def solve_integer_system(M, b):
    """Decide M x = b over the integers by one Smith form U M V = D.

    Returns (x, None) with x one solution, free parameters 0; or, when
    there is none, (None, (u, value, d)) for the first row i where
    d = D[i][i] does not divide value = (U b)[i] (d = 0 and value != 0
    included): u = U[i] combines the equations into u M x = value, whose
    left side is a multiple of d for every integer x.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [0] * cols, None
    U, D, V = smith_normal_form(M)
    c = [sum(U[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        if (c[i] % d) if d else c[i]:
            return None, (U[i], c[i], d)
        if d:
            y[i] = c[i] // d
    return [sum(V[i][k] * y[k] for k in range(cols)) for i in range(cols)], None


@dataclass
class AbelianLinearSystem:
    """Linear system over an abelian group: per equation, integer
    coefficients on variables and a group-element right-hand side."""

    group: FGAGroup
    variables: tuple[str, ...]
    equations: list[tuple[dict[str, int], FGAElement]] = field(default_factory=list)

    def add(self, coeffs: dict[str, int], rhs: FGAElement):
        if rhs.group != self.group:
            raise GroupMismatch("rhs in wrong group")
        unknown = set(coeffs) - set(self.variables)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        self.equations.append((dict(coeffs), rhs))

    def check(self, assignment: dict[str, FGAElement]) -> bool:
        for coeffs, rhs in self.equations:
            acc = self.group.zero()
            for v, k in coeffs.items():
                acc = acc + k * assignment[v]
            if acc != rhs:
                return False
        return True


def coordinate_systems(sys: AbelianLinearSystem):
    """(coordinate, M, b) per coordinate of the group: the integer system
    M x = b that coordinate splits off.  A torsion coordinate of order d
    gets one slack column per equation, d times the identity, after the
    variables' columns."""
    g = sys.group
    nvars = len(sys.variables)
    var_index = {v: i for i, v in enumerate(sys.variables)}
    neq = len(sys.equations)
    for c in range(g.rank + len(g.torsion)):
        torsion_d = None if c < g.rank else g.torsion[c - g.rank]
        ncols = nvars + (neq if torsion_d else 0)
        M = []
        b = []
        for e, (coeffs, rhs) in enumerate(sys.equations):
            row = [0] * ncols
            for v, k in coeffs.items():
                row[var_index[v]] = k
            if torsion_d:
                row[nvars + e] = torsion_d
            M.append(row)
            b.append(rhs.coords()[c])
        yield c, M, b


def solve_linear_system(
    sys: AbelianLinearSystem,
) -> tuple[Optional[dict[str, FGAElement]], Optional[dict]]:
    """(assignment, None) for one satisfying assignment, or (None,
    obstruction) when there is none.

    Each coordinate of the group splits off an independent integer system
    (coordinate_systems), decided by one Smith form.  The obstruction is
    the failing row of the first coordinate without a solution
    (solve_integer_system): an integer combination of the equations with
    zero variable part and nonzero value, reported with the value
    negative and modulus None; or one whose variable part is always a
    multiple of the modulus, which does not divide the value.
    """
    g = sys.group
    nvars = len(sys.variables)
    values: list[list[int]] = [[0] * (g.rank + len(g.torsion)) for _ in range(nvars)]
    for c, M, b in coordinate_systems(sys):
        x, failure = solve_integer_system(M, b)
        if x is None:
            combination, value, d = failure
            if d == 0 and value > 0:
                combination, value = [-k for k in combination], -value
            return None, {
                "coordinate": c,
                "combination": list(combination),
                "value": value,
                "modulus": d or None,
            }
        for i in range(nvars):
            values[i][c] = x[i]
    return {
        v: g.element(values[i][: g.rank], values[i][g.rank :])
        for i, v in enumerate(sys.variables)
    }, None
