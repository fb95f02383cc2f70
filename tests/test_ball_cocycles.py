"""The cocycle tables over a Cayley ball against per-entry arithmetic.

`BallCocycles` adds and subtracts interned kernel values through a memo.
The reference below builds the same tables one normalized tuple per
entry, as the memo-free construction did.  Both must agree entry by
entry, on bundled extensions and on generated presentations with random
lifts in torsion kernels, and the tables must hold one object per
distinct value.  On generated free products of cyclic groups, where the
reducer decides the word problem and any lifts define an extension,
every entry must equal the string route.  On a ball of radius >= 1 the
tables are total; a ball of radius 0 has none.
"""

from operator import sub
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from exteq import words
from exteq.abelian import FGAGroup
from exteq.errors import BallTooSmall, ResourceBound
from exteq.extension import BallCocycles, CentralExtension, sigma_q, sigma_rho
from exteq.instances import (
    dihedral_z,
    genus2_presentation,
    modular16,
    quaternion8,
    t1s,
)
from exteq.words import Alphabet, Presentation, build_ball
from test_ball import presentations


def reference_ball_cocycles(ext: CentralExtension, ball) -> SimpleNamespace:
    """E, rho_left, inverse, rho_right, sigma_inverse and q_left (the row
    of q_left_row for every element), one normalized tuple per entry;
    rho_right one column per element, as BallCocycles holds it."""
    alpha = ext.base.alphabet
    kernel = ext.kernel
    mods = (0,) * kernel.rank + kernel.torsion
    zero = (0,) * len(mods)

    def norm(v):
        return tuple(a % m if m else a for a, m in zip(v, mods))

    lifts = [z.coords() for z in ext.relator_lifts]
    inv_letter = [alpha.index(alpha.inverse[x]) for x in alpha.letters]
    succ = ball.edges
    E = [
        tuple(
            norm([sum(c * z[i] for c, z in zip(counts, lifts)) for i in range(len(mods))])
            for counts in row
        )
        for row in ball.logs
    ]
    rho_left = [tuple(norm(map(sub, e, d)) for e, d in zip(row, E[0])) for row in E]

    n = len(ball)
    links: list = [None] * n
    for j in range(1, n):
        w = ball.words[j]
        links[j] = (alpha.index(w[-1]), ball.index[w[:-1]])
    lmul = []
    for z in range(len(alpha.letters)):
        row: list = [succ[0][z]] + [None] * (n - 1)
        for j in range(1, n):
            if links[j] is not None and row[links[j][1]] is not None:
                row[j] = succ[row[links[j][1]]][links[j][0]]
        lmul.append(row)

    inverse: list = [0] + [None] * (n - 1)
    for j, link in enumerate(links):
        if link is not None and inverse[link[1]] is not None:
            inverse[j] = lmul[inv_letter[link[0]]][inverse[link[1]]]

    rho_right = []
    for mul in lmul:
        row = [zero] + [None] * (n - 1)
        for j, link in enumerate(links):
            if link is not None:
                y, p = link
                if row[p] is not None and mul[p] is not None:
                    row[j] = norm([a + b for a, b in zip(row[p], E[mul[p]][y])])
        rho_right.append(row)

    S: list = [zero] + [None] * (n - 1)
    for j, link in enumerate(links):
        if link is None:
            continue
        y, p = link
        if p == 0:
            S[j] = rho_left[j][inv_letter[y]]
            continue
        sp, sy, ip = S[p], S[succ[0][y]], inverse[p]
        r = rho_right[inv_letter[y]][ip] if ip is not None else None
        if sp is not None and sy is not None and r is not None:
            S[j] = norm(
                [a + b - c - d for a, b, c, d in zip(sp, sy, rho_left[p][y], r)]
            )

    def q_row(g):
        ig = inverse[g]
        sg = None if ig is None else S[g]
        if sg is None:
            return (None,) * len(inv_letter)
        out = []
        for xe, l, ix in zip(succ[0], rho_left[g], inv_letter):
            r = rho_right[ix][ig]
            sx = None if xe is None else S[xe]
            if sx is None or r is None:
                out.append(None)
            else:
                out.append(tuple(
                    (2 * lc - a - b + (a + b - lc - c) % m) % (2 * m) if m else lc - c
                    for a, b, lc, c, m in zip(sg, sx, l, r, mods)
                ))
        return tuple(out)

    return SimpleNamespace(
        E=E,
        rho_left=rho_left,
        inverse=inverse,
        rho_right=list(zip(*rho_right)),
        sigma_inverse=S,
        q_left=[q_row(g) for g in range(n)],
    )


def _genus2_torsion() -> CentralExtension:
    """The genus-2 surface group extended by Z x Z/3."""
    kernel = FGAGroup(1, (3,))
    return CentralExtension(genus2_presentation(), kernel, (kernel.element([1], [2]),))


BUNDLED = {
    "t1s-R5": (t1s, 5),
    "dihedral_z-R8": (dihedral_z, 8),
    "quaternion8-R6": (quaternion8, 6),
    "modular16-R6": (modular16, 6),
    "genus2-Z-Z3-R4": (_genus2_torsion, 4),
}


def _values(table):
    """The non-None entries of a table of values or of rows of values."""
    for entry in table:
        if isinstance(entry, (tuple, list)) and entry and not isinstance(entry[0], int):
            yield from _values(entry)
        elif entry is not None:
            yield entry


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_tables_equal_reference_on_bundled(name):
    make, R = BUNDLED[name]
    ext = make()
    ball = build_ball(ext.base, R)
    bc = BallCocycles(ext, ball)
    ref = reference_ball_cocycles(ext, ball)
    q_left = [bc.q_left_row(g) for g in range(len(ball))]
    assert bc.E == ref.E
    assert bc.rho_left == ref.rho_left
    assert bc.inverse == ref.inverse
    assert bc.rho_right == ref.rho_right
    assert bc.sigma_inverse == ref.sigma_inverse
    assert q_left == ref.q_left
    # one object per distinct value, in each table and across them
    values = [
        v
        for table in (bc.E, bc.rho_left, bc.rho_right, bc.sigma_inverse, q_left)
        for v in _values(table)
    ]
    assert values
    assert len({id(v) for v in values}) == len(set(values))


KERNELS = [
    FGAGroup(1),
    FGAGroup(0, (2,)),
    FGAGroup(0, (4,)),
    FGAGroup(1, (2,)),
    FGAGroup(0, (2, 3)),
]


@st.composite
def cyclic_free_products(draw):
    """<a, b, c | a^i, b^j, c^k>, each generator free (no relator), of
    order 2 to 5, or involutive.  The reducer decides their word problem,
    and every choice of relator lifts defines a central extension."""
    n = draw(st.integers(1, 3))
    gens = "abc"[:n]
    involutive = draw(st.sets(st.sampled_from(gens), max_size=1))
    alpha = Alphabet.from_generators(list(gens), involutive)
    orders = [0 if g in involutive else draw(st.sampled_from([0, 2, 3, 4, 5])) for g in gens]
    return Presentation(alpha, tuple(g * k for g, k in zip(gens, orders) if k))


@st.composite
def extensions(draw, bases):
    p = draw(bases)
    kernel = draw(st.sampled_from(KERNELS))
    lifts = tuple(
        kernel.element(
            [draw(st.integers(-3, 3)) for _ in range(kernel.rank)],
            [draw(st.integers(0, d - 1)) for d in kernel.torsion],
        )
        for _ in p.relators
    )
    return CentralExtension(p, kernel, lifts)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(extensions(presentations()), st.integers(1, 4))
def test_tables_equal_reference_on_generated(ext, R):
    # generated relator sets need not decide their word problem nor admit
    # the drawn lifts, so only the arithmetic is compared here
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("EXTEQ_CAP_STATES", "1000")
            ball = build_ball(ext.base, R)
    except ResourceBound:
        assume(False)
    bc = BallCocycles(ext, ball)
    ref = reference_ball_cocycles(ext, ball)
    assert bc.E == ref.E
    assert bc.rho_left == ref.rho_left
    assert bc.rho_right == ref.rho_right
    assert bc.sigma_inverse == ref.sigma_inverse
    assert [bc.q_left_row(g) for g in range(len(ball))] == ref.q_left


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(extensions(cyclic_free_products()), st.integers(1, 4))
def test_tables_equal_string_route_on_generated(ext, R):
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("EXTEQ_CAP_STATES", "1000")
            ball = build_ball(ext.base, R)
    except ResourceBound:
        assume(False)
    bc = BallCocycles(ext, ball)
    alpha = ext.base.alphabet
    for g, w in enumerate(ball.words):
        q_row = bc.q_left_row(g)
        for xi, x in enumerate(alpha.letters):
            assert bc.rho_left[g][xi] == sigma_rho(ext, w, x).coords(), (w, x)
            assert bc.rho_right[g][xi] == sigma_rho(ext, x, w).coords(), (x, w)
            assert q_row[xi] == sigma_q(ext, w, x).coords(), (w, x)
        want = sigma_rho(ext, w, alpha.inverse_word(w)).coords()
        assert bc.sigma_inverse[g] == want, w


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.one_of(extensions(presentations()), extensions(cyclic_free_products())),
    st.integers(0, 4),
)
def test_tables_are_total_from_radius_one(ext, R):
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("EXTEQ_CAP_STATES", "1000")
            ball = build_ball(ext.base, R)
    except ResourceBound:
        assume(False)
    if R == 0:
        with pytest.raises(BallTooSmall):
            BallCocycles(ext, ball)
        return
    bc = BallCocycles(ext, ball)
    rows = [*bc.rho_right, *(bc.q_left_row(g) for g in range(len(ball)))]
    for table in (bc.inverse, bc.sigma_inverse, *rows):
        assert None not in table


def test_t1s_tables_normalize_few_values(monkeypatch):
    norm_calls = []
    norm = BallCocycles._norm

    def counted_norm(self, v):
        norm_calls.append(v)
        return norm(self, v)

    suffix_runs = []
    ends_in_key = words._ends_in_key

    def counted_ends_in_key(w, keys, key_lengths):
        suffix_runs.append(w)
        return ends_in_key(w, keys, key_lengths)

    monkeypatch.setattr(BallCocycles, "_norm", counted_norm)
    monkeypatch.setattr(words, "_ends_in_key", counted_ends_in_key)
    ext = t1s()
    ball = build_ball(ext.base, 5)
    assert len(suffix_runs) <= 1_000
    bc = BallCocycles(ext, ball)
    bc.rho_right, bc.sigma_inverse
    for g in range(len(ball)):
        bc.q_left_row(g)
    assert len(norm_calls) <= 1_000
