import itertools
import random

import pytest

from conftest import split
from exteq.abelian import FGAGroup, iota1, iota1_inverse, iota3
from exteq.errors import CoordMismatch, NotTrivialInBase
from exteq.extension import (
    ExtElement,
    RHO,
    RHO_PRIME,
    central_defect,
    identity,
    in_E,
    iota2,
    iota2_inverse,
    q_of,
    sigma_q,
    sigma_rho,
)
from exteq.instances import (
    dihedral_presentation,
    dihedral_z,
    klein_presentation,
    modular16,
    quaternion8,
    t1s,
)
from exteq.words import Alphabet, Presentation, build_ball, normal_form


def comm(alpha, u, v):
    return u + v + alpha.inverse_word(u) + alpha.inverse_word(v)


def ball_words(p, R):
    return build_ball(p, R).words


# -- central defect -----------------------------------------------------


def test_central_defect_t1s_relator():
    ext = t1s()
    alpha = ext.base.alphabet
    w = comm(alpha, "a", "b") + comm(alpha, "c", "d")
    assert central_defect(ext, w) == ext.kernel.element([-2])
    assert central_defect(ext, "aA").is_zero()


def test_central_defect_t1s_twisted_commutators():
    ext = t1s()
    alpha = ext.base.alphabet
    for n in range(-4, 5):
        x = "c" + ("d" * n if n >= 0 else "D" * -n)
        w = comm(alpha, "a", "b") + comm(alpha, x, "d")
        assert central_defect(ext, w) == ext.kernel.element([-2])


def test_central_defect_rejects_nontrivial():
    ext = t1s()
    with pytest.raises(NotTrivialInBase):
        central_defect(ext, "ab")


# -- sigma_rho ----------------------------------------------------------


def test_sigma_rho_normalization():
    ext = t1s()
    for g in ["", "a", "ab", "cD"]:
        assert sigma_rho(ext, "", g).is_zero()
        assert sigma_rho(ext, g, "").is_zero()


def test_sigma_rho_split_extension_vanishes():
    ext = split(klein_presentation(), FGAGroup(1))
    for g in ball_words(ext.base, 2):
        for h in ball_words(ext.base, 2):
            assert sigma_rho(ext, g, h).is_zero()


def test_sigma_rho_t1s_against_e_presentation():
    # soundness check in the big group: rho(g) rho(h) rho(gh)^-1 z^-sigma
    # must reduce to the identity under the presentation of E itself
    ext = t1s()
    alpha_e = Alphabet.from_generators(["a", "b", "c", "d", "z"])
    relators = ["abABcdCDzz"] + [comm(alpha_e, "z", x) for x in "abcd"]
    pe = Presentation(alpha_e, tuple(relators))
    rng = random.Random(11)
    b2 = ball_words(ext.base, 2)
    for _ in range(10):
        g, h = rng.choice(b2), rng.choice(b2)
        s = sigma_rho(ext, g, h).free[0]
        gh = ext.nf(g + h)
        w = g + h + ext.inv_word(gh) + ("Z" * s if s >= 0 else "z" * -s)
        assert normal_form(pe, w) == ""


def test_sigma_rho_cocycle_condition_dihedral():
    ext = dihedral_z()
    b2 = ball_words(ext.base, 2)
    for g, h, k in itertools.product(b2, repeat=3):
        gh = ext.nf(g + h)
        hk = ext.nf(h + k)
        assert sigma_rho(ext, g, h) + sigma_rho(ext, gh, k) == sigma_rho(
            ext, h, k
        ) + sigma_rho(ext, g, hk)


def test_sigma_rho_symmetric_on_inverses():
    for ext in (dihedral_z(), quaternion8(), modular16()):
        for g in ball_words(ext.base, 3):
            gi = ext.inv_word(g)
            assert sigma_rho(ext, g, gi) == sigma_rho(ext, gi, g)


# -- finite-group multiplication oracles --------------------------------

QUAT_TABLE = {}


def _quat_mul(u, v):
    # units of the quaternions: (sign, axis) with axis in {1, i, j, k}
    su, au = u
    sv, av = v
    order = "1ijk"
    if au == "1":
        return (su * sv, av)
    if av == "1":
        return (su * sv, au)
    if au == av:
        return (-su * sv, "1")
    # i*j=k, j*k=i, k*i=j; reversed orders flip sign
    cyc = {("i", "j"): ("k", 1), ("j", "k"): ("i", 1), ("k", "i"): ("j", 1)}
    if (au, av) in cyc:
        axis, sgn = cyc[(au, av)]
    else:
        axis, sgn = cyc[(av, au)][0], -1
    return (su * sv * sgn, axis)


def test_quaternion8_matches_hand_table():
    ext = quaternion8()
    unit = {"": (1, "1"), "s": (1, "i"), "t": (1, "j"), "st": (1, "k")}
    # st maps to i*j = k, fixing the correspondence
    assert _quat_mul(unit["s"], unit["t"]) == unit["st"]
    for g1, g2 in itertools.product(unit, repeat=2):
        prod = ext.nf(g1 + g2)
        s = sigma_rho(ext, g1, g2).tors[0]
        expect = _quat_mul(unit[g1], unit[g2])
        got = unit[prod]
        assert (got[0] * (-1) ** s, got[1]) == expect


def _mod16_mul(u, v):
    # elements s^a t^b z^k with s^2 = t^2 = z, t s = s t z^2, z^4 = 1
    a, b, k = u
    c, d, l = v
    k2 = k + l + 2 * b * c + ((a + c) // 2) + ((b + d) // 2)
    return ((a + c) % 2, (b + d) % 2, k2 % 4)


def test_modular16_matches_hand_table():
    ext = modular16()
    unit = {"": (0, 0, 0), "s": (1, 0, 0), "t": (0, 1, 0), "st": (1, 1, 0)}
    # oracle sanity: the model has 16 elements and z has order 4
    elems = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _mod16_mul(cur, g)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    assert len(elems) == 16
    for g1, g2 in itertools.product(unit, repeat=2):
        prod = ext.nf(g1 + g2)
        s = sigma_rho(ext, g1, g2).tors[0]
        expect = _mod16_mul(unit[g1], unit[g2])
        a, b, k = unit[prod]
        assert (a, b, (k + s) % 4) == expect


# -- extension element arithmetic --------------------------------------


def eval_word(ext, w, coords=RHO):
    """Evaluate a word letter by letter in E (or E'), lifting each letter
    through the section with kernel part zero."""
    acc = identity(ext, coords)
    group = acc.a.group
    for x in w:
        acc = acc * ExtElement(ext, coords, x, group.zero())
    return acc


def test_mult_t1s_commutators():
    # the word [a,b][c,d] evaluates to the kernel element -2 in E
    ext = t1s()
    alpha = ext.base.alphabet
    e1 = eval_word(ext, comm(alpha, "a", "b"))
    e2 = eval_word(ext, comm(alpha, "c", "d"))
    prod = e1 * e2
    assert prod.g == "" and prod.a == ext.kernel.element([-2])


def test_group_laws_sampled():
    ext = dihedral_z()
    rng = random.Random(12)
    b3 = ball_words(ext.base, 3)
    ident = identity(ext, RHO)
    for _ in range(100):
        els = [
            ExtElement(ext, RHO, rng.choice(b3), ext.kernel.element([rng.randrange(-3, 4)]))
            for _ in range(3)
        ]
        e1, e2, e3 = els
        assert (e1 * e2) * e3 == e1 * (e2 * e3)
        assert e1 * ident == e1 and ident * e1 == e1
        assert (e1 * e1.inverse()).is_identity()
        assert (e1.inverse() * e1).is_identity()


def test_coord_mismatch():
    ext = dihedral_z()
    with pytest.raises(CoordMismatch):
        identity(ext, RHO) * identity(ext, RHO_PRIME)


# -- the symmetric section ---------------------------------------------


def test_q_identity_and_split():
    ext = dihedral_z()
    e = q_of(ext, "")
    assert e.is_identity()
    sp = split(klein_presentation(), FGAGroup(0, (3,)))
    for g in ball_words(sp.base, 2):
        assert q_of(sp, g).a.is_zero()


def test_q_symmetric():
    for ext, R in ((dihedral_z(), 4), (quaternion8(), 3), (modular16(), 3), (t1s(), 2)):
        for g in ball_words(ext.base, R):
            prod = q_of(ext, g) * q_of(ext, ext.inv_word(g))
            assert prod.is_identity(), (ext.kernel, g)


# cross-check routes for sigma_q


def sigma_q_letter(ext, g, x):
    """Single-letter evaluation iota3 sigma_rho(g,x) - iota3 sigma_rho(x^-1, g^-1).

    Agrees with sigma_q exactly when the kernel is torsion-free, and modulo
    the undoubled torsion orders in general (the coordinate reinterpretation
    into the pushout does not commute with addition on torsion residues).
    """
    xinv = ext.base.alphabet.inverse[x]
    return iota3(sigma_rho(ext, g, x)) - iota3(
        sigma_rho(ext, xinv, ext.inv_word(ext.nf(g)))
    )


def sigma_q_via_chain(ext, g, h):
    """Chain-rule evaluation of sigma_q letter by letter."""
    h = ext.nf(h)
    acc = ext.pushout_kernel.zero()
    for l in range(1, len(h) + 1):
        prefix, x = h[: l - 1], h[l - 1]
        acc = (
            acc
            + sigma_q(ext, ext.nf(g + prefix), x)
            - sigma_q(ext, prefix, x)
        )
    return acc


def test_t1s_sigma_grows_along_a_periodic_word():
    # under the shortlex section the genus-2 cocycles are unbounded:
    # nf((bABDab)^k A) rewrites the whole word and both cocycles read
    # -4k, so no finite predictor holds beyond the radius validated
    ext = t1s()
    for k in range(1, 6):
        w = "bABDab" * k
        assert sigma_q(ext, w, "A") == ext.pushout_kernel.element([-4 * k])
        assert sigma_rho(ext, w, "A") == ext.kernel.element([-4 * k])


def test_sigma_q_letter_identity_torsion_free():
    for ext in (dihedral_z(), t1s()):
        R = 3 if ext.kernel.torsion or len(ext.base.alphabet.letters) < 6 else 2
        for g in ball_words(ext.base, R):
            for x in ext.base.alphabet.letters:
                assert sigma_q(ext, g, x) == sigma_q_letter(ext, g, x), (g, x)


def test_sigma_q_letter_identity_mod_torsion():
    # on torsion kernels the closed form holds modulo the undoubled orders
    for ext in (quaternion8(), modular16()):
        ds = ext.kernel.torsion
        for g in ball_words(ext.base, 3):
            for x in ext.base.alphabet.letters:
                lhs = sigma_q(ext, g, x)
                rhs = sigma_q_letter(ext, g, x)
                assert all(
                    (u - v) % d == 0 for u, v, d in zip(lhs.tors, rhs.tors, ds)
                )


def test_sigma_q_chain_rule():
    ext = dihedral_z()
    rng = random.Random(13)
    b3 = ball_words(ext.base, 3)
    for _ in range(100):
        g, h = rng.choice(b3), rng.choice(b3)
        assert sigma_q(ext, g, h) == sigma_q_via_chain(ext, g, h)


def test_sigma_q_cocycle_condition():
    for ext in (dihedral_z(), quaternion8()):
        b2 = ball_words(ext.base, 2)
        for g, h, k in itertools.product(b2, repeat=3):
            gh = ext.nf(g + h)
            hk = ext.nf(h + k)
            assert sigma_q(ext, g, h) + sigma_q(ext, gh, k) == sigma_q(
                ext, h, k
            ) + sigma_q(ext, g, hk)


# -- embeddings ---------------------------------------------------------


def test_iota2_and_membership():
    ext = dihedral_z()
    e = ExtElement(ext, RHO, "st", ext.kernel.element([3]))
    img = iota2(e)
    assert in_E(img)
    assert iota2_inverse(img) == e
    odd = ExtElement(ext, RHO_PRIME, "s", ext.pushout_kernel.element([1]))
    assert not in_E(odd)


def test_iota2_homomorphism():
    ext = quaternion8()
    b2 = ball_words(ext.base, 2)
    for g1, g2 in itertools.product(b2, repeat=2):
        e1 = ExtElement(ext, RHO, g1, ext.kernel.zero())
        e2 = ExtElement(ext, RHO, g2, ext.kernel.element([], [1]))
        assert iota2(e1 * e2) == iota2(e1) * iota2(e2)


def test_q_coords_multiply_with_sigma_q():
    # q(g1) q(g2) = q(g1 g2) (1, sigma_q(g1, g2)) in rho-prime coordinates
    ext = quaternion8()
    b2 = ball_words(ext.base, 2)
    for g1, g2 in itertools.product(b2, repeat=2):
        central = ExtElement(ext, RHO_PRIME, "", sigma_q(ext, g1, g2))
        assert q_of(ext, g1) * q_of(ext, g2) == q_of(ext, g1 + g2) * central
