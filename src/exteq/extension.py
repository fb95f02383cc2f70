"""Central extensions 1 -> A -> E -> G -> 1 in section coordinates.

An extension is specified by a presentation of the base group and one
kernel element per relator (the value the relator word takes in E).  The
section rho lifts shortlex normal forms letterwise; its cocycle sigma_rho
is computed from logged relator applications.  The pushout extension E'
doubles the kernel's torsion so that the symmetric section q and its
cocycle sigma_q are expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import Optional

from .abelian import (
    FGAElement,
    FGAGroup,
    in_iota1_image,
    iota1,
    iota1_inverse,
    iota3,
)
from .errors import CoordMismatch, NotTrivialInBase
from .words import CayleyBall, Presentation, Word, normal_form_with_log

RHO = "rho"  # E, kernel A
RHO_PRIME = "rho-prime"  # E', kernel A'
Q = "q"  # E', kernel A', q-section coordinates


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
        object.__setattr__(
            self, "_lift_coords", tuple(z.coords() for z in self.relator_lifts)
        )
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


def central_defect(ext: CentralExtension, w: Word) -> FGAElement:
    """The kernel element represented by a base-trivial word.

    Sums the signed relator lifts along the logged reduction; the kernel
    being central makes the value independent of the reduction order.
    """
    nf, log = normal_form_with_log(ext.base, w)
    if nf != "":
        raise NotTrivialInBase(f"{w!r} reduces to {nf!r}, not the identity")
    acc = [0] * (ext.kernel.rank + len(ext.kernel.torsion))
    for k, sign, _pos in log:
        for i, v in enumerate(ext._lift_coords[k]):
            acc[i] += sign * v
    return ext.kernel.element(acc[: ext.kernel.rank], acc[ext.kernel.rank :])


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

    Every edge g --x--> gx of a Cayley ball carries the relator counts
    logged while reducing nf(g) x; read in the kernel they give the label
    E(g, x), and rho(g) x = rho(gx) E(g, x) in E.  With normal forms
    prefix-closed, h = h'y gives rho(h) = rho(h') y, hence

        sigma_rho(g, nf(x)) = E(g, x) - E(1, x)
        sigma_rho(nf(x), h) = sigma_rho(nf(x), h') + E(x h', y)
        sigma_rho(h, h^-1)  = sigma_rho(h', h'^-1) + sigma_rho(y, y^-1)
                              - sigma_rho(h', y) - sigma_rho(y^-1, h'^-1)

    and sigma_q(g, x) = q(g) + q(x) + iota1 sigma_rho(g, x) - q(gx) with
    q(h) = -iota3 sigma_rho(h, h^-1), the last one evaluated for gx by the
    third identity, so every lookup stays inside the ball even where gx
    leaves it.  Kernel values are tuples of coordinates, free ones first,
    torsion normalized.  Elements whose normal form is not prefix-closed
    inside the ball read None; callers evaluate those by the string route.
    Letters are given by their index in the alphabet.
    """

    def __init__(self, ext: CentralExtension, ball: CayleyBall):
        if ball.presentation != ext.base:
            raise ValueError("ball belongs to a different presentation")
        alpha = ext.base.alphabet
        kernel = ext.kernel
        self.ext = ext
        self.ball = ball
        self.mods = (0,) * kernel.rank + kernel.torsion
        self.zero = (0,) * len(self.mods)
        self.inv_letter = [alpha.index(alpha.inverse[x]) for x in alpha.letters]
        self.succ = [tuple(row[x] for x in alpha.letters) for row in ball.edges]
        lifts = ext._lift_coords
        labels: dict[tuple, tuple] = {}

        def label(counts):
            v = labels.get(counts)
            if v is None:
                v = labels[counts] = self._norm(
                    [sum(c * z[i] for c, z in zip(counts, lifts))
                     for i in range(len(self.mods))]
                )
            return v

        self.E = [tuple(label(c) for c in row) for row in ball.logs]
        self._q_rows: dict = {}  # q_left_row by the triple it depends on
        # rho_left[g][x] = sigma_rho(g, nf(x)) = E(g, x) - E(1, x), where
        # E(1, x) is nonzero only for letters that are not their own
        # normal form
        E1 = self.E[0]
        self.rho_left = [
            tuple(self._sub(e, d) for e, d in zip(row, E1)) for row in self.E
        ] if any(map(any, E1)) else self.E

    def _norm(self, v) -> tuple:
        return tuple(a % m if m else a for a, m in zip(v, self.mods))

    def _sub(self, u, v) -> tuple:
        return self._norm([a - b for a, b in zip(u, v)])

    @cached_property
    def _chain(self):
        """(last letter, parent) per element on a prefix-closed chain to
        the identity, else None; and the left multiplications lmul[z][h],
        the index of nf(z) h or None."""
        ball = self.ball
        alpha = self.ext.base.alphabet
        n = len(ball)
        links: list = [None] * n
        for j in range(1, n):
            p = ball.parents[j]
            if p is not None and (p == 0 or links[p] is not None):
                links[j] = (alpha.index(ball.words[j][-1]), p)
        succ = self.succ
        lmul = []
        for z in range(len(alpha.letters)):
            row: list = [succ[0][z]] + [None] * (n - 1)
            for j in range(1, n):
                link = links[j]
                if link is not None:
                    k = row[link[1]]
                    if k is not None:
                        row[j] = succ[k][link[0]]
            lmul.append(row)
        return links, lmul

    @cached_property
    def inverse(self) -> list:
        """inverse[h]: the index of h^-1, or None."""
        links, lmul = self._chain
        inv: list = [0] + [None] * (len(links) - 1)
        for j, link in enumerate(links):
            if link is not None:
                k = inv[link[1]]
                if k is not None:
                    inv[j] = lmul[self.inv_letter[link[0]]][k]
        return inv

    @cached_property
    def rho_right(self) -> list:
        """rho_right[z][h] = sigma_rho(nf(z), h), or None."""
        links, lmul = self._chain
        E = self.E
        out = []
        for z, mul in enumerate(lmul):
            row: list = [self.zero] + [None] * (len(links) - 1)
            for j, link in enumerate(links):
                if link is not None:
                    y, p = link
                    r, k = row[p], mul[p]
                    if r is not None and k is not None:
                        row[j] = self._norm([a + b for a, b in zip(r, E[k][y])])
            out.append(row)
        return out

    @cached_property
    def sigma_inverse(self) -> list:
        """sigma_inverse[h] = sigma_rho(h, h^-1), or None."""
        links, _ = self._chain
        rl, inv, rv, ibar = self.rho_left, self.inverse, self.rho_right, self.inv_letter
        S: list = [self.zero] + [None] * (len(links) - 1)
        for j, link in enumerate(links):
            if link is None:
                continue
            y, p = link
            if p == 0:
                S[j] = rl[j][ibar[y]]
                continue
            sp, sy, ip = S[p], S[self.succ[0][y]], inv[p]
            r = rv[ibar[y]][ip] if ip is not None else None
            if sp is not None and sy is not None and r is not None:
                S[j] = self._norm(
                    [a + b - c - d for a, b, c, d in zip(sp, sy, rl[p][y], r)]
                )
        return S

    def q_left_row(self, g: int) -> tuple:
        """sigma_q(g, nf(x)) in pushout coordinates for every letter x,
        None where the tables do not reach.

        The row is a function of rho_left[g], sigma_rho(g, g^-1) and the
        column sigma_rho(nf(x^-1), g^-1) of rho_right, a triple that few
        elements do not share (25 distinct on the t1s ball of radius 5),
        so it is computed once per triple and the row is shared.
        """
        ig = self.inverse[g]
        sg = None if ig is None else self.sigma_inverse[g]
        if sg is None:
            return (None,) * len(self.inv_letter)
        rr = self.rho_right
        rl, column = self.rho_left[g], tuple([rr[ix][ig] for ix in self.inv_letter])
        row = self._q_rows.get((rl, sg, column))
        if row is not None:
            return row
        S, mods = self.sigma_inverse, self.mods
        torsion = any(mods)
        out = []
        for xe, l, r in zip(self.succ[0], rl, column):
            sx = None if xe is None else S[xe]
            if sx is None or r is None:
                out.append(None)
            elif not torsion:
                out.append(tuple(map(sub, l, r)))
            else:
                out.append(tuple([
                    (2 * lc - a - b + (a + b - lc - c) % m) % (2 * m) if m else lc - c
                    for a, b, lc, c, m in zip(sg, sx, l, r, mods)
                ]))
        row = self._q_rows[rl, sg, column] = tuple(out)
        return row


@dataclass(frozen=True)
class ExtElement:
    """Element of E or E' in section coordinates (g, a)."""

    ext: CentralExtension
    coords: str
    g: Word
    a: FGAElement

    def __post_init__(self):
        if self.coords not in (RHO, RHO_PRIME, Q):
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
        if self.coords == RHO_PRIME:
            return iota1(sigma_rho(self.ext, g1, g2))
        return sigma_q(self.ext, g1, g2)

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


def to_rho_prime(e: ExtElement) -> ExtElement:
    if e.coords == RHO:
        return iota2(e)
    if e.coords == RHO_PRIME:
        return e
    return ExtElement(e.ext, RHO_PRIME, e.g, e.a + _q_part(e.ext, e.g))
