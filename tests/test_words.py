import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from conftest import _find_shorten, log_counts, reference_reduce_with_log, validated_L
from exteq import words
from exteq.errors import AlphabetMismatch, BallTooSmall, ExtEqError, ResourceBound
from exteq.instances import (
    dihedral_presentation,
    genus2_presentation,
    klein_presentation,
)
from exteq.words import (
    Alphabet,
    CayleyBall,
    Presentation,
    Word,
    _reduce_with_log,
    build_ball,
    check_small_cancellation,
    normal_form,
    normal_form_with_log,
)


class NotSmallCancellation(ExtEqError):
    """Presentation fails the small-cancellation bound greedy shortening
    needs."""


def _find_shorten_rightmost(table, max_len, min_len, w: Word):
    """`_find_shorten` scanning start positions from the right."""
    for i in range(len(w) - 1, -1, -1):
        for length in range(min(max_len, len(w) - i), min_len - 1, -1):
            hit = table.get(w[i : i + length])
            if hit is not None:
                return i, w[i : i + length], hit
    return None


def dehn_reduce(
    p: Presentation, w: Word, search: bool = True, policy: str = "leftmost"
) -> tuple[Word, tuple[int, ...]]:
    """Reduce w, returning the reduced word and its relator-count vector.

    With search enabled (the default) this is the program's reducer and
    the result is the canonical normal form; with search=False only
    greedy shortening runs, at the leftmost or (policy "rightmost") the
    rightmost position, which is complete for C'(1/6) presentations and
    rejected otherwise.
    """
    if search:
        return _reduce_with_log(p, w)
    report = check_small_cancellation(p, Fraction(1, 6))
    if not report.passed:
        raise NotSmallCancellation(
            f"presentation is not C'(1/6): piece {report.violations[0][0]!r}"
        )
    find = _find_shorten if policy == "leftmost" else _find_shorten_rightmost
    alpha = p.alphabet
    shorten, _ = p.tables
    max_len = max(map(len, shorten), default=0)
    min_len = min(map(len, shorten), default=0)
    w = alpha.free_reduce(w)
    counts = [0] * len(p.relators)
    while shorten:
        hit = find(shorten, max_len, min_len, w)
        if hit is None:
            break
        i, u, (v, k, sign) = hit
        w = alpha.free_reduce(w[:i] + v + w[i + len(u) :])
        counts[k] += sign
    return w, tuple(counts)


def ball_walk(ball: CayleyBall, start: int, w: Word) -> int:
    """The index reached from element `start` along the letters of w."""
    alpha = ball.presentation.alphabet
    cur = start
    for x in w:
        nxt = ball.edges[cur][alpha.index(x)]
        if nxt is None:
            raise BallTooSmall(f"walk left the radius-{ball.radius} ball at letter {x!r}")
        cur = nxt
    return cur


def ball_element(ball: CayleyBall, w: Word) -> int:
    """The index of w's element in the ball."""
    idx = ball.index.get(normal_form(ball.presentation, w))
    if idx is None:
        raise BallTooSmall(f"element of {w!r} outside radius {ball.radius}")
    return idx


def is_trivial(p: Presentation, w: Word) -> bool:
    return normal_form(p, w) == ""


@dataclass(frozen=True)
class QGConstants:
    """Quasi-geodesic constants (lam, nu) plus their derivation trail."""

    lam: Fraction
    nu: Fraction
    mu0: Optional[Fraction] = None
    lambda0: Optional[Fraction] = None
    lambda1: Optional[Fraction] = None
    mu1: Optional[Fraction] = None
    m0: Optional[int] = None

    def __post_init__(self):
        if self.lam < 1 or self.nu < 0:
            raise ValueError("need lam >= 1 and nu >= 0")


def derive_qg_constants(
    delta: Fraction,
    m0: int,
    K0: Fraction = Fraction(1),
    K1: Fraction = Fraction(1),
    K2: Fraction = Fraction(1),
    C: Fraction = Fraction(0),
    nu1: Optional[Fraction] = None,
) -> QGConstants:
    """Evaluate the standard constant chain exactly.

    mu0 = 8, lambda0 = 400*delta*m0, mu1 = mu0 + 2 + 2/lambda0,
    lambda1 = lambda0, lam = K0*K1*K2*lambda1, nu = nu1 + C with nu1
    defaulting to mu1.
    """
    delta = Fraction(delta)
    if delta <= 0 or m0 < 1:
        raise ValueError("need delta > 0 and m0 >= 1")
    if any(Fraction(K) < 1 for K in (K0, K1, K2)) or Fraction(C) < 0:
        raise ValueError("need K0, K1, K2 >= 1 and C >= 0")
    mu0 = Fraction(8)
    lambda0 = Fraction(400) * delta * m0
    mu1 = mu0 + 2 + Fraction(2) / lambda0
    lambda1 = lambda0
    lam = Fraction(K0) * Fraction(K1) * Fraction(K2) * lambda1
    if nu1 is None:
        nu1 = mu1
    nu = Fraction(nu1) + Fraction(C)
    return QGConstants(
        lam=lam, nu=nu, mu0=mu0, lambda0=lambda0, lambda1=lambda1, mu1=mu1, m0=m0
    )


def genus2():
    alpha = Alphabet.from_generators(["a", "b", "c", "d"])
    return Presentation(alpha, ("abABcdCD",))


def dihedral_inf():
    alpha = Alphabet.from_generators(["s", "t"])
    return Presentation(alpha, ("ss", "tt"))


def klein_four():
    alpha = Alphabet.from_generators(["s", "t"])
    return Presentation(alpha, ("ss", "tt", "stST"))


def free2():
    return Presentation(Alphabet.from_generators(["a", "b"]), ())


# -- alphabet and free reduction ---------------------------------------


def test_alphabet_involution():
    alpha = Alphabet.from_generators(["a", "b"])
    assert alpha.letters == ("a", "A", "b", "B")
    for x in alpha.letters:
        assert alpha.inverse[alpha.inverse[x]] == x
    with pytest.raises(AlphabetMismatch):
        alpha.check_word("az")


def test_free_reduce_examples():
    alpha = Alphabet.from_generators(["a", "b"])
    assert alpha.free_reduce("aA") == ""
    assert alpha.free_reduce("") == ""
    assert alpha.free_reduce("abBa") == "aa"


def test_free_reduce_exhaustive_two_letters():
    # idempotent and length-nonincreasing, exhaustively to length 12
    alpha = Alphabet.from_generators(["a"])
    for n in range(13):
        for tup in itertools.product("aA", repeat=n):
            w = "".join(tup)
            r = alpha.free_reduce(w)
            assert len(r) <= len(w)
            assert alpha.free_reduce(r) == r


def test_inverse_word_involution():
    alpha = Alphabet.from_generators(["a", "b"])
    rng = random.Random(0)
    for _ in range(200):
        w = "".join(rng.choice(alpha.letters) for _ in range(rng.randrange(9)))
        assert alpha.inverse_word(alpha.inverse_word(w)) == w
        assert alpha.free_reduce(w + alpha.inverse_word(w)) == ""


# -- small cancellation -------------------------------------------------


def test_sc_genus2_passes_sixth():
    report = check_small_cancellation(genus2(), Fraction(1, 6))
    assert report.passed
    assert report.longest_piece == 1


def test_sc_torsion_fails():
    alpha = Alphabet.from_generators(["a"])
    p = Presentation(alpha, ("aaa",))
    report = check_small_cancellation(p, Fraction(1, 6))
    assert not report.passed
    assert any(piece == "a" and rlen == 3 for piece, _, rlen in report.violations)


def test_sc_no_relators_vacuous():
    report = check_small_cancellation(free2(), Fraction(1, 6))
    assert report.passed


# -- dehn reduction -----------------------------------------------------


def test_dehn_reduce_relator_word():
    p = genus2()
    w, counts = dehn_reduce(p, "abABcdCD")
    assert w == ""
    assert counts == (1,)


def test_dehn_reduce_free_cases():
    p = free2()
    assert dehn_reduce(p, "a") == ("a", ())
    assert dehn_reduce(p, "aAb") == ("b", ())
    assert dehn_reduce(p, "a")[1] is p.zero_counts


def test_dehn_strict_mode_rejects_non_sc():
    alpha = Alphabet.from_generators(["a"])
    p = Presentation(alpha, ("aaa",))
    with pytest.raises(NotSmallCancellation):
        dehn_reduce(p, "aaa", search=False)


def test_dehn_vs_ball_triviality_genus2():
    p = genus2()
    ball = build_ball(p, 4)
    rng = random.Random(1)
    for _ in range(300):
        w = "".join(rng.choice(p.alphabet.letters) for _ in range(rng.randrange(5)))
        red, _ = dehn_reduce(p, w)
        assert (red == "") == (ball_element(ball, w) == 0)
    for rot in ("abABcdCD", "cdCDabAB", "baBAdcDC"):
        assert is_trivial(p, rot)
    for u in ["", "a", "cD", "Dba"]:
        w = u + "abABcdCD" + p.alphabet.inverse_word(u)
        assert dehn_reduce(p, w)[0] == ""


def test_defect_log_policy_independent():
    # greedy shortening from the left and from the right applies the
    # relator equally often, signs counted, on the C'(1/6) genus-2 group
    p = genus2()
    rng = random.Random(2)
    r = "abABcdCD"
    for _ in range(50):
        u = "".join(rng.choice(p.alphabet.letters) for _ in range(rng.randrange(3)))
        pieces = [u, r, p.alphabet.inverse_word(u), p.alphabet.inverse_word(r), r]
        rng.shuffle(pieces)
        w = "".join(pieces)
        if normal_form(p, w) != "":
            continue
        counts = {}
        for policy in ("leftmost", "rightmost"):
            red, counts[policy] = dehn_reduce(p, w, search=False, policy=policy)
            assert red == ""
        assert counts["leftmost"] == counts["rightmost"]


def _freely_reduced_words(alpha: Alphabet, n: int):
    words = [""]
    yield ""
    for _ in range(n):
        words = [w + x for w in words for x in alpha.letters
                 if not w or alpha.inverse[w[-1]] != x]
        yield from words


def two_swap_lengths() -> Presentation:
    """<a, b | abAB, abbaBB>: swap keys of lengths 2 and 3, so two
    lengths can start at one position."""
    return Presentation(Alphabet.from_generators(["a", "b"]), ("abAB", "abbaBB"))


def regex_metacharacters() -> Presentation:
    """Letters that are regular-expression syntax: ( and ), * and +
    inverse to each other, . its own inverse."""
    alpha = Alphabet(
        ("(", ")", "*", "+", "."), {"(": ")", ")": "(", "*": "+", "+": "*", ".": "."}
    )
    return Presentation(alpha, ("(*)+", "(**"))


def _reduce_or_refuse(reduce, p: Presentation, w: Word):
    try:
        return reduce(p, w)
    except ResourceBound as e:
        return str(e)


@pytest.mark.parametrize(
    "make",
    [
        genus2_presentation,
        dihedral_presentation,
        klein_presentation,
        two_swap_lengths,
        regex_metacharacters,
    ],
)
def test_reducer_counts_equal_reference_on_bundled(make, monkeypatch):
    # both reducers freely reduce first, so the freely reduced words up
    # to length 6 stand for every word up to length 6; seeded random
    # words of 7-16 letters reach longer rewrites (at most 9 on the
    # dihedral group, whose swap closures double with each letter); with
    # the swap-closure cap at 0 both reducers refuse the same words with
    # the same message
    p = make()
    rng = random.Random(make.__name__)
    longest = 9 if make is dihedral_presentation else 16
    randoms = [
        "".join(rng.choice(p.alphabet.letters) for _ in range(rng.randint(7, longest)))
        for _ in range(300)
    ]
    refused = 0
    for cap, batch in (
        (words._SWAP_CLOSURE_CAP, [*_freely_reduced_words(p.alphabet, 6), *randoms]),
        (0, randoms),
    ):
        monkeypatch.setattr(words, "_SWAP_CLOSURE_CAP", cap)
        for w in batch:
            got = _reduce_or_refuse(_reduce_with_log, p, w)
            ref = _reduce_or_refuse(reference_reduce_with_log, p, w)
            if isinstance(ref, str):
                refused += 1
            else:
                ref_nf, log = ref
                ref = (ref_nf, log_counts(p, log))
                if not log:
                    assert got[1] is p.zero_counts, w
            assert got == ref, w
    assert refused


# -- normal forms -------------------------------------------------------


def test_normal_form_klein_four():
    p = klein_four()
    # all length <= 3 words collapse onto the four element representatives
    reps = {"", "s", "t", "st"}
    seen = set()
    for n in range(4):
        for tup in itertools.product(p.alphabet.letters, repeat=n):
            seen.add(normal_form(p, "".join(tup)))
    assert seen == reps


def test_normal_form_is_canonical_dihedral():
    p = dihedral_inf()
    # s and S coincide, alternating words are canonical
    assert normal_form(p, "S") == "s"
    assert normal_form(p, "TsT") == "tst"
    assert normal_form(p, "stts") == ""
    assert normal_form_with_log(p, "ss")[1] == (1, 0)


def test_normal_form_multiplicative_consistency():
    # nf(uv) depends only on (nf(u), nf(v))
    p = klein_four()
    rng = random.Random(3)
    for _ in range(200):
        u = "".join(rng.choice(p.alphabet.letters) for _ in range(rng.randrange(6)))
        v = "".join(rng.choice(p.alphabet.letters) for _ in range(rng.randrange(6)))
        assert normal_form(p, u + v) == normal_form(
            p, normal_form(p, u) + normal_form(p, v)
        )


# -- cayley balls -------------------------------------------------------


def test_ball_free_rank2():
    ball = build_ball(free2(), 1)
    assert len(ball) == 5


def test_ball_klein_four():
    # oracle: the group has exactly 4 elements
    ball = build_ball(klein_four(), 2)
    assert len(ball) == 4
    assert sorted(ball.words) == ["", "s", "st", "t"]


def test_ball_genus2_radius2():
    # no relator (length 8) can identify words of length <= 2: the count
    # equals the number of freely reduced words, 1 + 8 + 8*7
    p = genus2()
    ball = build_ball(p, 2)
    free_count = 1 + 8 + 8 * 7
    assert len(ball) == free_count


def test_ball_distances_match_nf_and_triangle():
    p = dihedral_inf()
    ball = build_ball(p, 6)
    for i, w in enumerate(ball.words):
        assert ball.distances[i] == len(w)
    rng = random.Random(4)
    idxs = list(range(len(ball)))
    for _ in range(100):
        i, j = rng.choice(idxs), rng.choice(idxs)
        wij = normal_form(p, p.alphabet.inverse_word(ball.words[i]) + ball.words[j])
        if len(wij) <= 6:
            assert len(wij) <= ball.distances[i] + ball.distances[j]


def test_ball_walk_and_bounds():
    ball = build_ball(free2(), 2)
    assert ball_walk(ball, 0, "ab") == ball.index["ab"]
    with pytest.raises(BallTooSmall):
        ball_walk(ball, 0, "aba")


# -- quasi-geodesics ----------------------------------------------------
#
# read off the language L of quasi-geodesic words, validated against
# the ball's distances by build_automata


def test_qg_geodesics_and_backtracks():
    L = validated_L(free2(), 4)
    for w in ["", "a", "ab", "abab"]:
        assert L.accepts(w)
    assert not L.accepts("aA")


def test_qg_dihedral_alternating():
    L = validated_L(dihedral_inf(), 8)
    assert L.accepts("stst")
    assert not L.accepts("ss")


def test_qg_language_closures_dihedral():
    # closed under subwords and inversion, exhaustively to length 6
    p = dihedral_inf()
    L = validated_L(p, 8)
    member = {}
    for n in range(7):
        for tup in itertools.product(p.alphabet.letters, repeat=n):
            w = "".join(tup)
            member[w] = L.accepts(w)
    for w, ok in member.items():
        if ok:
            inv = p.alphabet.inverse_word(w)
            assert member[inv]
            for i in range(len(w)):
                for j in range(i, len(w) + 1):
                    assert member[w[i:j]]


# -- constants ----------------------------------------------------------


def test_qg_constants_examples():
    c = derive_qg_constants(Fraction(1), 3)
    assert c.lambda0 == 1200
    assert c.mu1 == Fraction(10) + Fraction(1, 600)
    assert c.lam == c.lambda1 and c.nu == c.mu1

    c2 = derive_qg_constants(Fraction(1), 3, K0=Fraction(2), C=Fraction(1))
    assert c2.lam == 2400
    assert c2.nu == c.mu1 + 1


def test_qg_constants_reject_degenerate():
    with pytest.raises(ValueError):
        derive_qg_constants(Fraction(0), 3)
    with pytest.raises(ValueError):
        derive_qg_constants(Fraction(1), 0)
