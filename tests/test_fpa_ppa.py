import tracemalloc
from dataclasses import replace

import pytest

from exteq.abelian import FGAGroup, pa
from conftest import (
    enumerate_language,
    language_equal,
    reference_fpa,
    reference_graph,
    shortest_witness,
    split,
)
from exteq.automata import restrict_accepting, words_up_to
from exteq.errors import (
    AlphabetMismatch,
    BallTooSmall,
    Incompatible,
    NotAcceptingState,
)
from exteq import fpa_ppa
from exteq.extension import BallCocycles, sigma_q, sigma_rho
from exteq.fpa_ppa import (
    _pair_count,
    build_ppa,
    check_fpa_key_property,
    check_ppa_key_property,
    fpa_branch,
    is_compatible,
    ppa_branch,
    sigma_q_of_state,
)
from exteq.instances import default_language_spec, klein_presentation
from exteq.lrational import (
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    PredictorFamily,
    _walk,
    build_automata,
)
from exteq.words import build_ball


@pytest.fixture(scope="module")
def split_stack():
    ext = split(klein_presentation(), FGAGroup(1))
    lspec = default_language_spec(ext.base)
    cocycles = BallCocycles(ext, build_ball(ext.base, 6))
    return ext, build_automata(ext, lspec, 6, cocycles)


# -- FPA ----------------------------------------------------------------


def test_fpa_language_is_L(dihedral_stack):
    L, _ = reference_graph(dihedral_stack.lspec, None)
    assert language_equal(dihedral_stack.fpa.graph, L)


def test_split_fpa_trivial(split_stack):
    ext, fams = split_stack
    F = fams[Q_LEFT]
    zero = ext.pushout_kernel.zero()
    for s in F.live:
        for x in ext.base.alphabet.letters:
            assert F.a_of(s, x) == zero


def test_fpa_branches_partition_L(dihedral_stack):
    F = dihedral_stack.fpa
    full = set(enumerate_language(F.graph, 8))
    parts = [set(enumerate_language(fpa_branch(F, s), 8)) for s in F.live]
    assert set().union(*parts) == full
    assert sum(len(p) for p in parts) == len(full)


def test_t1s_fpa_builds(t1s_stack):
    F = t1s_stack.fpa
    assert len(F.live) >= 1
    assert language_equal(F.graph, reference_graph(t1s_stack.lspec, None)[0])


def test_compatibility(dihedral_stack):
    F = dihedral_stack.fpa
    some = next(iter(F.live))
    assert is_compatible(F, some, "")
    outside_T = next(s for s in range(F.graph.n_states) if s not in F.live)
    with pytest.raises(NotAcceptingState):
        fpa_branch(F, outside_T)
    with pytest.raises(NotAcceptingState):
        is_compatible(F, outside_T, "")
    with pytest.raises(AlphabetMismatch):
        is_compatible(F, some, "q")
    # w in L(s̄) and v compatible imply wv in L, exhaustively
    for s in F.live:
        ws = [w for w in enumerate_language(fpa_branch(F, s), 4)]
        for v in words_up_to(F.graph.alphabet, 4):
            ok = is_compatible(F, s, v)
            for w in ws[:3]:
                assert F.graph.accepts(w + v) == ok, (w, v)


def test_sigma_q_of_state_routes(dihedral_stack):
    # the automaton readout against the cocycle at the shortest witness
    F = dihedral_stack.fpa
    ext = dihedral_stack.ext
    for s in F.live:
        assert sigma_q_of_state(F, s, "").is_zero()
        w = shortest_witness(F, s)
        for v in words_up_to(F.graph.alphabet, 5):
            if not is_compatible(F, s, v):
                continue
            assert sigma_q_of_state(F, s, v) == sigma_q(ext, w, v), (s, v)
    with pytest.raises(Incompatible):
        s = next(iter(F.live))
        v = next(
            v
            for v in words_up_to(F.graph.alphabet, 2)
            if not is_compatible(F, s, v)
        )
        sigma_q_of_state(F, s, v)
    outside_T = next(s for s in range(F.graph.n_states) if s not in F.live)
    with pytest.raises(NotAcceptingState):
        sigma_q_of_state(F, outside_T, "")


def test_fpa_key_property_dihedral(dihedral_stack):
    report = check_fpa_key_property(dihedral_stack.fpa, 6, 4)
    assert report.passed
    assert check_fpa_key_property(dihedral_stack.fpa, 0, 0).passed


def test_fpa_key_property_q8(q8_stack):
    assert check_fpa_key_property(q8_stack.fpa, 5, 3).passed


@pytest.mark.parametrize("stack_name, R, R_v, pairs", [
    ("dihedral_stack", 6, 4, 7873), ("q8_stack", 5, 3, 11577),
    ("t1s_stack", 3, 1, 3657), ("t1s_stack", 4, 2, 182225),
])
def test_fpa_pair_count_matches_enumeration(request, stack_name, R, R_v, pairs):
    # the count over the graph equals the pairs of every word, unpruned
    F = request.getfixturevalue(stack_name).fpa
    alpha, live = F.graph.alphabet, F.live
    ends = [F.graph.run(w) for w in words_up_to(alpha, R)]
    tails = {
        s: sum(F.graph.run(v, s) in live for v in words_up_to(alpha, R_v))
        for s in set(ends) & live
    }
    assert _pair_count(F, R, R_v) == pairs
    assert sum(tails[s] for s in ends if s in live) == pairs


@pytest.mark.parametrize(
    "stack_name", ["q8_stack", "modular16_stack", "t1s_stack", "dihedral_stack"]
)
def test_fpa_matches_reference_product(request, stack_name):
    stack = request.getfixturevalue(stack_name)
    for F in (stack.fpa, stack.lfpa, stack.rfpa):
        ref, scan = reference_fpa(F)
        assert F.graph.transitions == ref.transitions
        assert F.graph.initial == ref.initial
        assert F.graph.accepting == ref.accepting
        assert F.live == ref.accepting
        assert F.live
        letters = F.graph.alphabet.letters
        for s in F.live:
            for x in letters:
                assert [F.a_of(s, x)] == scan[x][s], (s, x)
        outside = set(range(F.graph.n_states)) - F.live
        assert outside
        for s in outside:
            for x in letters:
                with pytest.raises(NotAcceptingState):
                    F.a_of(s, x)
    # the RFPA reads the plain word w and predicts sigma_rho(x, w^-1)
    F, inv = stack.rfpa, stack.ext.base.alphabet.inverse_word
    for s in F.live:
        w = shortest_witness(F, s)
        for x in F.graph.alphabet.letters:
            assert F.a_of(s, x) == sigma_rho(stack.ext, x, inv(w)), (w, x)


def test_witness_words_land_in_branch(q8_stack):
    F = q8_stack.fpa
    for s in F.live:
        w = shortest_witness(F, s)
        assert F.graph.run(w) == s


# -- LFPA / RFPA --------------------------------------------------------


def test_lfpa_readout_matches_sigma_rho(dihedral_stack):
    F = dihedral_stack.lfpa
    ext = dihedral_stack.ext
    for w in enumerate_language(F.graph, 6):
        s = F.graph.run(w)
        for x in ext.base.alphabet.letters:
            assert F.a_of(s, x) == sigma_rho(ext, w, x)


def test_rfpa_accepts_L_inverse(dihedral_stack):
    # L is inverse-closed, so the RFPA language coincides with L
    F = dihedral_stack.rfpa
    alpha = F.graph.alphabet
    for w in words_up_to(alpha, 6):
        assert F.graph.accepts(w) == dihedral_stack.fpa.graph.accepts(alpha.inverse_word(w))


def test_rfpa_readout_matches_sigma_rho(dihedral_stack):
    F = dihedral_stack.rfpa
    ext = dihedral_stack.ext
    alpha = F.graph.alphabet
    for w in enumerate_language(dihedral_stack.fpa.graph, 6):
        s = F.graph.run(w)
        assert s in F.live
        for x in alpha.letters:
            assert F.a_of(s, x) == sigma_rho(ext, x, alpha.inverse_word(w))


def test_split_predictors_trivial(split_stack):
    ext, fams = split_stack
    M1, M2 = fams[RHO_LEFT], fams[RHO_RIGHT_REVERSED]
    zero = ext.kernel.zero()
    for s in M1.live:
        for x in ext.base.alphabet.letters:
            assert M1.a_of(s, x) == zero
    for s in M2.live:
        for x in ext.base.alphabet.letters:
            assert M2.a_of(s, x) == zero


# -- PPA ----------------------------------------------------------------


def test_ppa_language_is_L(dihedral_stack):
    assert language_equal(dihedral_stack.ppa.fsa, dihedral_stack.fpa.graph)


def test_ppa_branches_partition_L(dihedral_stack):
    D = dihedral_stack.ppa
    full = set(enumerate_language(D.fsa, 8))
    parts = [
        set(enumerate_language(ppa_branch(D, d), 8))
        for d in dihedral_stack.ext.kernel.parity().elements()
    ]
    assert set().union(*parts) == full
    assert sum(len(p) for p in parts) == len(full)


def test_ppa_initial_branch_holds_identity(dihedral_stack):
    D = dihedral_stack.ppa
    zero = dihedral_stack.ext.kernel.parity().zero()
    assert ppa_branch(D, zero).accepts("")


def test_split_ppa_single_branch(split_stack):
    ext, fams = split_stack
    D = build_ppa(fams[RHO_LEFT], fams[RHO_RIGHT_REVERSED])
    zero = ext.kernel.parity().zero()
    assert D.branch_values() == [zero]
    assert language_equal(ppa_branch(D, zero), D.fsa)


def test_ppa_key_property_dihedral(dihedral_stack):
    D, cocycles = dihedral_stack.ppa, dihedral_stack.cocycles
    assert cocycles.ball.radius == 8
    report = check_ppa_key_property(D, cocycles, 8)
    assert report.passed
    assert check_ppa_key_property(D, cocycles, 0).passed
    with pytest.raises(BallTooSmall):
        check_ppa_key_property(D, cocycles, 9)


def test_ppa_key_property_q8(q8_stack):
    assert check_ppa_key_property(q8_stack.ppa, q8_stack.cocycles, 6).passed


def test_ppa_key_property_t1s(t1s_stack):
    assert check_ppa_key_property(t1s_stack.ppa, t1s_stack.cocycles, 4).passed


def test_ppa_key_property_t1s_memory_is_bounded(t1s_stack):
    # the words of length R, most of the words, are judged as they are
    # generated and kept in no frontier
    D, cocycles = t1s_stack.ppa, t1s_stack.cocycles
    check_ppa_key_property(D, cocycles, 5)  # fills the lazy tables
    tracemalloc.start()
    try:
        report = check_ppa_key_property(D, cocycles, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2**20


def test_ppa_key_property_t1s_checks_few_classes(t1s_stack, monkeypatch):
    # the validation walk judges each of the 85 (PPA state, class) pairs
    # of L's words once, as it does each family's
    calls = []

    def counted_walk(lspec, R, ball, graph, checks, classes):
        (check,) = checks

        def counted(w, s, g):
            calls.append((s, classes[g]))
            return check(w, s, g)

        return _walk(lspec, R, ball, graph, [counted], classes)

    monkeypatch.setattr(fpa_ppa, "_walk", counted_walk)
    assert check_ppa_key_property(t1s_stack.ppa, t1s_stack.cocycles, 5).passed
    assert len(calls) == len(set(calls)) == 85


def _string_route_ppa_check(D, R):
    """check_ppa_key_property with sigma_rho(w, w^-1) by the string route."""
    alpha = D.fsa.alphabet
    counterexamples = []
    frontier = [("", D.fsa.initial)]
    for _ in range(R + 1):
        nxt = []
        for w, s in frontier:
            if s in D.fsa.accepting:
                if D.states[s] is None:
                    counterexamples.append(("sink-accepting", w))
                else:
                    d = D.states[s][1]
                    direct = pa(sigma_rho(D.ext, w, alpha.inverse_word(w)))
                    if direct != d:
                        counterexamples.append(("branch", w, direct, d))
            if len(w) < R:
                for x in alpha.letters:
                    nxt.append((w + x, D.fsa.step(s, x)))
        frontier = nxt
    return counterexamples


@pytest.mark.parametrize("R", [0, 1, 4, 6])
def test_ppa_key_property_tables_match_string_route(dihedral_stack, R):
    # the same counterexamples, in the same order, on a PPA with one
    # branch flipped and one accepting state sent to the sink
    D = dihedral_stack.ppa
    kernel = D.ext.kernel
    one = kernel.parity().element([], [1])
    states = list(D.states)
    flipped, sunk = sorted(D.fsa.accepting)[-2:]
    m, d = states[flipped]
    states[flipped] = (m, d + one)
    states[sunk] = None
    for ppa in (D, replace(D, states=states, memo={})):
        report = check_ppa_key_property(ppa, dihedral_stack.cocycles, R)
        assert list(report.mismatches) == _string_route_ppa_check(ppa, R)
    if R == 6:
        assert {c[0] for c in report.mismatches} == {"branch", "sink-accepting"}


def test_ppa_key_property_checks_membership(dihedral_stack):
    # the check also compares D's acceptance with membership in L
    D = dihedral_stack.ppa
    dropped = D.fsa.run("s")
    fsa = restrict_accepting(D.fsa, D.fsa.accepting - {dropped})
    report = check_ppa_key_property(replace(D, fsa=fsa, memo={}),
                                    dihedral_stack.cocycles, 4)
    assert report.mismatches[0] == ("membership", "s", True, False)
    assert {m[0] for m in report.mismatches} == {"membership"}


def test_mutated_family_breaks_key_property(dihedral_stack):
    fam = dihedral_stack.fams[Q_LEFT]
    ext = dihedral_stack.ext
    s0 = fam.graph.run("s")
    values = dict(fam.values)
    row = list(values["t"])
    one = ext.pushout_kernel.element([1])
    row[s0] = one if row[s0] != one else ext.pushout_kernel.zero()
    values["t"] = tuple(row)
    broken = PredictorFamily(
        kind=fam.kind,
        ext=fam.ext,
        lspec=fam.lspec,
        graph=fam.graph,
        values=values,
        value_sets={
            x: tuple(sorted({values[x][s] for s in fam.live}, key=lambda a: a.coords()))
            for x in fam.graph.alphabet.letters
        },
    )
    report = check_fpa_key_property(broken, 4, 3)
    assert not report.passed
    assert report.mismatches[0][0] in ("state-route", "pair")
