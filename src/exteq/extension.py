"""Central extensions 1 -> A -> E -> G -> 1 in section coordinates.

An extension is specified by a presentation of the base group and one
kernel element per relator (the value the relator word takes in E).  The
section rho lifts shortlex normal forms letterwise; its cocycle sigma_rho
is computed from the reducer's relator-count vectors.  The pushout
extension E' doubles the kernel's torsion so that the symmetric section
q and its cocycle sigma_q are expressible.  Over a Cayley ball of radius
>= 1 with prefix-closed normal forms, BallCocycles holds both cocycles
as integer tables, defined at every entry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub

from .abelian import (
    FGAElement,
    FGAGroup,
    in_iota1_image,
    iota1,
    iota1_inverse,
    iota3,
)
from .errors import BallTooSmall, CoordMismatch, NotTrivialInBase
from .words import CayleyBall, Presentation, Word, normal_form_with_log

RHO = "rho"  # E, kernel A
RHO_PRIME = "rho-prime"  # E', kernel A'


@dataclass(frozen=True)
class CentralExtension:
    base: Presentation
    kernel: FGAGroup
    relator_lifts: tuple[FGAElement, ...]

    def __post_init__(self):
        if len(self.relator_lifts) != len(self.base.relators):
            raise ValueError("one kernel lift per relator required")
        for z in self.relator_lifts:
            if z.group != self.kernel:
                raise ValueError("relator lift outside the kernel group")
        object.__setattr__(self, "_sigma_cache", {})
        object.__setattr__(self, "_sigma_q_cache", {})
        object.__setattr__(self, "_q_part_cache", {})

    @property
    def pushout_kernel(self) -> FGAGroup:
        return self.kernel.pushout()

    def nf(self, w: Word) -> Word:
        return normal_form_with_log(self.base, w)[0]

    def inv_word(self, w: Word) -> Word:
        return self.base.alphabet.inverse_word(w)


def kernel_value(ext: CentralExtension, counts: tuple[int, ...]) -> FGAElement:
    """sum_k counts[k] * z_k: the relator lifts weighted by a
    relator-count vector."""
    return sum((c * z for c, z in zip(counts, ext.relator_lifts)), ext.kernel.zero())


def central_defect(ext: CentralExtension, w: Word) -> FGAElement:
    """The kernel element represented by a base-trivial word.

    The kernel value of the relator counts of w's reduction; the kernel
    being central makes the value independent of the reduction order.
    """
    nf, counts = normal_form_with_log(ext.base, w)
    if nf != "":
        raise NotTrivialInBase(f"{w!r} reduces to {nf!r}, not the identity")
    return kernel_value(ext, counts)


def sigma_rho(ext: CentralExtension, g: Word, h: Word) -> FGAElement:
    """Cocycle of the shortlex section: rho(g) rho(h) = rho(gh) i(value)."""
    # the cache is keyed by normal forms, so a hit on the words as given
    # needs no normalization
    cached = ext._sigma_cache.get((g, h))
    if cached is None:
        g = ext.nf(g)
        h = ext.nf(h)
        key = (g, h)
        cached = ext._sigma_cache.get(key)
        if cached is None:
            gh = ext.nf(g + h)
            cached = central_defect(ext, g + h + ext.inv_word(gh))
            ext._sigma_cache[key] = cached
    return cached


def _q_part(ext: CentralExtension, g: Word) -> FGAElement:
    """A'-part of q(g) in rho-prime coordinates: -iota3(sigma_rho(g, g^-1))."""
    cached = ext._q_part_cache.get(g)
    if cached is None:
        g = ext.nf(g)
        cached = ext._q_part_cache.get(g)
        if cached is None:
            cached = -iota3(sigma_rho(ext, g, ext.inv_word(g)))
            ext._q_part_cache[g] = cached
    return cached


def sigma_q(ext: CentralExtension, g: Word, h: Word) -> FGAElement:
    """Cocycle of the symmetric section, valued in the pushout kernel."""
    cached = ext._sigma_q_cache.get((g, h))
    if cached is None:
        g = ext.nf(g)
        h = ext.nf(h)
        key = (g, h)
        cached = ext._sigma_q_cache.get(key)
        if cached is None:
            gh = ext.nf(g + h)
            cached = (
                _q_part(ext, g)
                + _q_part(ext, h)
                + iota1(sigma_rho(ext, g, h))
                - _q_part(ext, gh)
            )
            ext._sigma_q_cache[key] = cached
    return cached


class BallCocycles:
    """sigma_rho, sigma_q and sigma_rho(x, h) as integer tables over a ball.

    Every edge g --x--> gx of a Cayley ball carries the relator-count
    vector of reducing nf(g) x; its kernel value is the label E(g, x),
    and rho(g) x = rho(gx) E(g, x) in E.  With normal forms
    prefix-closed, h = h'y gives rho(h) = rho(h') y, hence

        sigma_rho(g, nf(x)) = E(g, x) - E(1, x)
        sigma_rho(nf(x), h) = sigma_rho(nf(x), h') + E(x h', y)
        sigma_rho(h, h^-1)  = sigma_rho(h', h'^-1) + sigma_rho(y, y^-1)
                              - sigma_rho(h', y) - sigma_rho(y^-1, h'^-1)

    and sigma_q(g, x) = q(g) + q(x) + iota1 sigma_rho(g, x) - q(gx) with
    q(h) = -iota3 sigma_rho(h, h^-1), the last one evaluated for gx by the
    third identity, so every lookup stays inside the ball even where gx
    leaves it.  Kernel values are tuples of coordinates, free ones first,
    torsion normalized.  Letters are given by their index in the
    alphabet, as in the ball's edge rows, which the tables read in place.

    The tables have one requirement, checked once by the constructor: a
    ball of radius R >= 1 whose normal forms are prefix-closed.  Each
    element h = h'y other than the identity must have as its link (y, h')
    a parent h' at a smaller index, with the edge h' --y--> h; a ball of
    radius 0 raises BallTooSmall, any other ball ValueError naming the
    word.  The chain from the identity then spells each normal form, and
    build_ball's normal forms are never longer than their distance, so a
    parent lies within distance R - 1: nf(z) h' and h'^-1 stay in the
    ball, every letter is in it, and every table entry is defined.

    The tables hold few distinct values (3 on the t1s ball of radius 5),
    so each is interned: equal values are one tuple object.  A sum or
    difference of two values is normalized once per operand pair and
    memoized on the instance; the tables are filled by memo lookups.
    """

    def __init__(self, ext: CentralExtension, ball: CayleyBall):
        if ball.presentation != ext.base:
            raise ValueError("ball belongs to a different presentation")
        if ball.radius < 1:
            raise BallTooSmall(
                f"cocycle tables need a ball of radius >= 1, have {ball.radius}"
            )
        alpha = ext.base.alphabet
        kernel = ext.kernel
        nf, edges, letters = ball.words, ball.edges, alpha.letters
        for j, (y, p) in enumerate(ball.links, 1):
            if p is None or p >= j or edges[p][y] != j or nf[p] + letters[y] != nf[j]:
                raise ValueError(f"normal form {nf[j]!r} is not prefix-closed in the ball")
        self.ext = ext
        self.ball = ball
        self.mods = (0,) * kernel.rank + kernel.torsion
        self._values: dict[tuple, tuple] = {}  # each distinct value, interned
        self._memo: dict = {}  # (operator, u, v) -> u op v, normalized
        self.zero = self._intern((0,) * len(self.mods))
        self.inv_letter = [alpha.index(alpha.inverse[x]) for x in alpha.letters]
        # each distinct relator-count vector and row is labelled once
        rows = dict.fromkeys(ball.logs)
        label = {
            counts: self._intern(kernel_value(ext, counts).coords())
            for counts in {c for row in rows for c in row}
        }
        for row in rows:
            rows[row] = tuple(map(label.__getitem__, row))
        self.E = list(map(rows.__getitem__, ball.logs))
        self._q_rows: dict = {}  # q_left_row by class
        # rho_left[g][x] = sigma_rho(g, nf(x)) = E(g, x) - E(1, x)
        E1 = self.E[0]
        left = {
            row: tuple([self._op(sub, e, d) for e, d in zip(row, E1)])
            for row in rows.values()
        }
        self.rho_left = list(map(left.__getitem__, self.E))

    def _intern(self, v: tuple) -> tuple:
        return self._values.setdefault(v, v)

    def _norm(self, v) -> tuple:
        return self._intern(tuple([a % m if m else a for a, m in zip(v, self.mods)]))

    def _op(self, op, u: tuple, v: tuple) -> tuple:
        """u op v for op add or sub, normalized once per operand pair."""
        s = self._memo.get((op, u, v))
        if s is None:
            s = self._memo[op, u, v] = self._norm(map(op, u, v))
        return s

    @cached_property
    def _lmul(self) -> list:
        """_lmul[h][z], the index of nf(z) h, for the first elements, those
        below distance R: the parents and their inverses, all it is read at."""
        ball = self.ball
        inner = bisect_left(ball.distances, ball.radius)
        succ = ball.edges
        out = [succ[0]]
        for y, p in self.ball.links[: inner - 1]:
            out.append([succ[g][y] for g in out[p]])
        return out

    @cached_property
    def inverse(self) -> list:
        """inverse[h]: the index of h^-1."""
        lmul, ibar = self._lmul, self.inv_letter
        inv = [0]
        for y, p in self.ball.links:
            inv.append(lmul[inv[p]][ibar[y]])
        return inv

    @cached_property
    def rho_right(self) -> list:
        """rho_right[h][z] = sigma_rho(nf(z), h): one interned column per
        element, its parent's where every added edge label is zero."""
        E, lmul, op, memo, zero = self.E, self._lmul, self._op, self._memo, self.zero
        n = len(self.inv_letter)
        columns: dict = {}
        out = [columns.setdefault((zero,) * n, (zero,) * n)]
        for y, p in self.ball.links:
            col = out[p]
            labels = [E[g][y] for g in lmul[p]]
            if labels.count(zero) != n:
                col = tuple([
                    r if e is zero else memo.get((add, r, e)) or op(add, r, e)
                    for r, e in zip(col, labels)
                ])
                col = columns.setdefault(col, col)
            out.append(col)
        return out

    @cached_property
    def sigma_inverse(self) -> list:
        """sigma_inverse[h] = sigma_rho(h, h^-1), once per step's operands."""
        rl, inv, rv, ibar = self.rho_left, self.inverse, self.rho_right, self.inv_letter
        op, from_1 = self._op, self.ball.edges[0]
        steps: dict = {}
        S = [self.zero]
        for j, (y, p) in enumerate(self.ball.links, 1):
            if p == 0:
                S.append(rl[j][ibar[y]])
                continue
            key = (S[p], S[from_1[y]], rl[p][y], rv[inv[p]][ibar[y]])
            if key not in steps:
                a, b, c, d = key
                steps[key] = op(sub, op(add, a, b), op(add, c, d))
            S.append(steps[key])
        return S

    @cached_property
    def classes(self) -> list:
        """classes[g]: the id of (rho_left[g], sigma_inverse[g],
        rho_right[g^-1]), which every family's expected row at g is a
        function of; the t1s ball of radius 5 has 25 classes."""
        ids: dict = {}
        columns = map(self.rho_right.__getitem__, self.inverse)
        triples = zip(self.rho_left, self.sigma_inverse, columns)
        return [ids.setdefault(t, len(ids)) for t in triples]

    def q_left_row(self, g: int) -> tuple:
        """sigma_q(g, nf(x)) in pushout coordinates for every letter x.

        The row is a function of g's class (`classes`), so it is computed
        once per class and shared.  The values are interned, so a key
        that hits compares equal by identity.
        """
        cls = self.classes[g]
        row = self._q_rows.get(cls)
        if row is None:
            mods, S, ibar = self.mods, self.sigma_inverse, self.inv_letter
            sg, column = S[g], self.rho_right[self.inverse[g]]
            row = self._q_rows[cls] = tuple([
                self._intern(tuple([
                    (2 * lc - a - b + (a + b - lc - c) % m) % (2 * m) if m else lc - c
                    for a, b, lc, c, m in zip(sg, S[xe], l, column[ix], mods)
                ]))
                for xe, l, ix in zip(self.ball.edges[0], self.rho_left[g], ibar)
            ])
        return row


@dataclass(frozen=True)
class ExtElement:
    """Element of E or E' in section coordinates (g, a)."""

    ext: CentralExtension
    coords: str
    g: Word
    a: FGAElement

    def __post_init__(self):
        if self.coords not in (RHO, RHO_PRIME):
            raise CoordMismatch(f"unknown coordinate system {self.coords!r}")
        expected = (
            self.ext.kernel if self.coords == RHO else self.ext.pushout_kernel
        )
        if self.a.group != expected:
            raise CoordMismatch(
                f"kernel part lives in {self.a.group}, expected {expected}"
            )
        object.__setattr__(self, "g", self.ext.nf(self.g))

    def _check(self, other: "ExtElement"):
        if self.ext is not other.ext and self.ext != other.ext:
            raise CoordMismatch("elements of different extensions")
        if self.coords != other.coords:
            raise CoordMismatch(f"{self.coords} vs {other.coords}")

    def _twist(self, g1: Word, g2: Word) -> FGAElement:
        if self.coords == RHO:
            return sigma_rho(self.ext, g1, g2)
        return iota1(sigma_rho(self.ext, g1, g2))

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        return ExtElement(
            self.ext,
            self.coords,
            self.ext.nf(self.g + other.g),
            self.a + other.a + self._twist(self.g, other.g),
        )

    def inverse(self) -> "ExtElement":
        ginv = self.ext.inv_word(self.g)
        return ExtElement(
            self.ext,
            self.coords,
            ginv,
            -self.a - self._twist(self.g, ginv),
        )

    def is_identity(self) -> bool:
        return self.g == "" and self.a.is_zero()


def identity(ext: CentralExtension, coords: str = RHO) -> ExtElement:
    group = ext.kernel if coords == RHO else ext.pushout_kernel
    return ExtElement(ext, coords, "", group.zero())


def q_of(ext: CentralExtension, g: Word) -> ExtElement:
    """The symmetric section value q(g) in rho-prime coordinates."""
    g = ext.nf(g)
    return ExtElement(ext, RHO_PRIME, g, _q_part(ext, g))


def iota2(e: ExtElement) -> ExtElement:
    """Natural embedding of E into E': doubles the kernel part."""
    if e.coords != RHO:
        raise CoordMismatch("iota2 expects rho coordinates")
    return ExtElement(e.ext, RHO_PRIME, e.g, iota1(e.a))


def iota2_inverse(e: ExtElement) -> ExtElement:
    if e.coords != RHO_PRIME:
        raise CoordMismatch("iota2_inverse expects rho-prime coordinates")
    return ExtElement(e.ext, RHO, e.g, iota1_inverse(e.a))


def in_E(e: ExtElement) -> bool:
    """Membership of an E'-element in the embedded copy of E."""
    if e.coords != RHO_PRIME:
        raise CoordMismatch("in_E expects rho-prime coordinates")
    return in_iota1_image(e.a)

