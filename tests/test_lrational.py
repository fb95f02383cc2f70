import random

import pytest

from exteq.abelian import FGAGroup
from conftest import (
    enumerate_language,
    free_presentation,
    language_equal,
    predictor,
    reference_graph,
    split,
    validated_L,
    walk_alone,
)
from exteq.automata import words_up_to
from exteq.errors import SynthesisInconsistent
from exteq.instances import (
    default_language_spec,
    dihedral_presentation,
    genus2_presentation,
    klein_presentation,
)
from exteq.lrational import (
    KINDS,
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    LanguageSpec,
    PredictorFamily,
    build_automata,
)
from exteq.automata import FSA
from exteq.extension import BallCocycles, sigma_q, sigma_rho
from exteq.words import build_ball, normal_form


@pytest.fixture
def q8_families(q8_stack):
    return q8_stack.ext, q8_stack.fams


@pytest.fixture
def t1s_data(t1s_stack):
    return t1s_stack.ext, t1s_stack.fpa.graph, t1s_stack.fams[Q_LEFT]


# -- the language L -----------------------------------------------------


def test_spec_parameter_validation():
    p = dihedral_presentation()
    with pytest.raises(ValueError):
        LanguageSpec(p, nu=1, window=None)
    with pytest.raises(ValueError):
        LanguageSpec(p, nu=0, window=0)
    ext = split(p, FGAGroup(1))
    with pytest.raises(ValueError):
        build_automata(
            ext,
            default_language_spec(klein_presentation()),
            5,
            BallCocycles(ext, build_ball(p, 5)),
        )


def test_free_group_L_is_freely_reduced_words():
    p = free_presentation()
    L = validated_L(p, 6)
    for w in words_up_to(p.alphabet, 5):
        assert L.accepts(w) == p.alphabet.is_freely_reduced(w)


def test_dihedral_L_is_alternating_words():
    p = dihedral_presentation()
    L = validated_L(p, 8)

    def alternating(w):
        classes = ["st"[c in "tT"] for c in w]
        return all(u != v for u, v in zip(classes, classes[1:]))

    for w in words_up_to(p.alphabet, 6):
        assert L.accepts(w) == alternating(w), w


def test_dihedral_branches_partition_L(dihedral_stack):
    ext = dihedral_stack.ext
    fam = dihedral_stack.fams[RHO_LEFT]
    live = FSA(fam.graph.alphabet, fam.graph.transitions, fam.graph.initial, fam.live)
    full = set(enumerate_language(live, 6))
    for x in ext.base.alphabet.letters:
        parts = [
            set(enumerate_language(predictor(fam, x, a), 6))
            for a in fam.value_sets[x]
        ]
        assert set().union(*parts) == full
        assert sum(len(part) for part in parts) == len(full)
        for w in full:
            assert sigma_rho(ext, w, x) == fam.values[x][fam.graph.run(w)]


def test_split_extension_has_single_trivial_branch():
    ext = split(klein_presentation(), FGAGroup(1))
    spec = default_language_spec(ext.base)
    cocycles = BallCocycles(ext, build_ball(ext.base, 7))
    fam = build_automata(ext, spec, 7, cocycles)[Q_LEFT]
    L, _ = reference_graph(spec, None)
    zero = ext.pushout_kernel.zero()
    for x in ext.base.alphabet.letters:
        assert fam.value_sets[x] == (zero,)
        assert language_equal(predictor(fam, x, zero), L)


# -- predictor families on the finite extensions ------------------------


def test_q8_value_sets(q8_families):
    ext, fams = q8_families
    A4 = ext.pushout_kernel
    for x in ext.base.alphabet.letters:
        assert set(fams[Q_LEFT].value_sets[x]) == {
            A4.element([], [0]),
            A4.element([], [1]),
            A4.element([], [3]),
        }
        assert set(fams[RHO_LEFT].value_sets[x]) == {
            ext.kernel.element([], [0]),
            ext.kernel.element([], [1]),
        }


def test_q8_forward_predictions_match_direct(q8_families):
    ext, fams = q8_families
    rng = random.Random(31)
    alpha = ext.base.alphabet
    live = fams[Q_LEFT].live
    for _ in range(200):
        w = "".join(rng.choice(alpha.letters) for _ in range(rng.randrange(7)))
        s = fams[Q_LEFT].graph.run(w)
        if s not in live:
            continue
        for x in alpha.letters:
            assert fams[Q_LEFT].values[x][s] == sigma_q(ext, w, x)
            t = fams[RHO_LEFT].graph.run(w)
            assert fams[RHO_LEFT].values[x][t] == sigma_rho(ext, w, x)


def test_reversed_kind_reads_plain_tape(q8_stack, t1s_stack):
    # the reversed family reads w itself and predicts sigma_rho(x, w^-1);
    # on Q8 every letter and its inverse name the same base element, so
    # only t1s tells the plain tape from the letter-inverted one
    for stack, n in ((q8_stack, 4), (t1s_stack, 3)):
        ext, fams = stack.ext, stack.fams
        fam = fams[RHO_RIGHT_REVERSED]
        alpha = ext.base.alphabet
        for w in words_up_to(alpha, n):
            s = fam.graph.run(w)
            in_L = fams[Q_LEFT].graph.run(w) in fams[Q_LEFT].live
            assert (s in fam.live) == in_L
            if in_L:
                for x in alpha.letters:
                    want = sigma_rho(ext, x, alpha.inverse_word(w))
                    assert fam.values[x][s] == want, (w, x)


def test_modular16_families_validate(modular16_stack):
    ext = modular16_stack.ext
    fam = modular16_stack.fams[Q_LEFT]
    assert fam.validated_radius == 6
    A8 = ext.pushout_kernel
    for x in ext.base.alphabet.letters:
        assert set(fam.value_sets[x]) == {
            A8.element([], [0]),
            A8.element([], [2]),
            A8.element([], [6]),
        }


# -- the surface-group instance -----------------------------------------


def test_t1s_L_is_geodesic_words(t1s_data):
    ext, L, _ = t1s_data
    rng = random.Random(32)
    alpha = ext.base.alphabet
    words = list(words_up_to(alpha, 3))
    words += [
        "".join(rng.choice(alpha.letters) for _ in range(rng.randrange(4, 6)))
        for _ in range(300)
    ]
    for w in words:
        assert L.accepts(w) == (len(normal_form(ext.base, w)) == len(w)), w


def test_t1s_q_left_value_sets(t1s_data):
    # per-letter value sets, confirmed by exhaustive validation at radius 5
    ext, _, fam = t1s_data
    A = ext.pushout_kernel
    expected = {
        "a": {-2, 0, 2},
        "b": {-2, 0, 2},
        "c": {-4, -2, 0, 2},
        "d": {-2, 0, 2, 4},
    }
    for x, vals in expected.items():
        assert set(fam.value_sets[x]) == {A.element([v]) for v in vals}
        # inverse letters see the negated sets: sigma_q(g, x^-1) equals
        # -sigma_q(g x^-1, x) by the cocycle identity and q-symmetry
        xi = ext.base.alphabet.inverse[x]
        assert set(fam.value_sets[xi]) == {A.element([-v]) for v in vals}
    assert fam.validated_radius == 5


# -- validation machinery -----------------------------------------------


def test_mutated_family_fails_validation(q8_families):
    ext, fams = q8_families
    fam = fams[Q_LEFT]
    victim = fam.graph.run("st")
    assert victim in fam.live
    broken = PredictorFamily(
        kind=fam.kind,
        ext=fam.ext,
        lspec=fam.lspec,
        graph=FSA(
            fam.graph.alphabet,
            fam.graph.transitions,
            fam.graph.initial,
            fam.graph.accepting - {victim},
        ),
        values=fam.values,
        value_sets=fam.value_sets,
    )
    report = walk_alone(broken, 3, build_ball(ext.base, 3))
    assert not report.passed
    assert any(m[0] == "membership" for m in report.mismatches)


def test_mutated_values_fail_validation(q8_families):
    ext, fams = q8_families
    fam = fams[RHO_LEFT]
    s0 = fam.graph.run("s")
    values = dict(fam.values)
    x = ext.base.alphabet.letters[0]
    row = list(values[x])
    one = ext.kernel.element([], [1])
    row[s0] = one if row[s0] != one else ext.kernel.zero()
    values[x] = tuple(row)
    broken = PredictorFamily(
        kind=fam.kind,
        ext=fam.ext,
        lspec=fam.lspec,
        graph=fam.graph,
        values=values,
        value_sets=fam.value_sets,
    )
    report = walk_alone(broken, 3, build_ball(ext.base, 3))
    assert any(m[0] == "value" for m in report.mismatches)


def test_shared_cocycle_tables(q8_stack):
    # tables built once serve every family
    ext, ball = q8_stack.ext, q8_stack.ball
    cocycles = BallCocycles(ext, ball)
    for fam in q8_stack.fams.values():
        R = fam.validated_radius
        assert walk_alone(fam, R, ball, cocycles=cocycles) == walk_alone(
            fam, R, ball
        )


def test_bad_scheme_is_rejected():
    # a window too narrow to see the surface relator survives radius 4
    # (where free reduction is the only relation) but not radius 5, where
    # over-half relator fragments become non-geodesic
    p = genus2_presentation()
    validated_L(p, 4, LanguageSpec(p, nu=0, window=1))
    with pytest.raises(SynthesisInconsistent):
        validated_L(p, 5, LanguageSpec(p, nu=0, window=1))
