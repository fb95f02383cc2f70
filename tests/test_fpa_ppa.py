from dataclasses import replace

import pytest

from exteq.abelian import FGAGroup, ParityElement, pa, parity_elements
from conftest import enumerate_language, language_equal, shortest_witness
from exteq.automata import words_up_to
from exteq.errors import AlphabetMismatch, Incompatible, NotAcceptingState
from exteq.extension import sigma_q, sigma_rho
from exteq.fpa_ppa import (
    build_fpa,
    build_lfpa,
    build_ppa,
    build_rfpa,
    check_fpa_key_property,
    check_ppa_key_property,
    fpa_branch,
    is_compatible,
    ppa_branch,
    sigma_q_of_state,
)
from exteq.instances import default_language_spec, klein_presentation, split
from exteq.lrational import (
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    PredictorFamily,
    build_predictor_family,
)


@pytest.fixture(scope="module")
def split_stack():
    ext = split(klein_presentation(), FGAGroup(1))
    lspec = default_language_spec(ext.base)
    fams = {
        kind: build_predictor_family(ext, kind, lspec, 4, 6)
        for kind in (Q_LEFT, RHO_LEFT, RHO_RIGHT_REVERSED)
    }
    return ext, fams


# -- FPA ----------------------------------------------------------------


def test_kind_checks(dihedral_stack):
    fams = dihedral_stack.fams
    with pytest.raises(ValueError):
        build_fpa(fams[RHO_LEFT])
    with pytest.raises(ValueError):
        build_lfpa(fams[Q_LEFT])
    with pytest.raises(ValueError):
        build_rfpa(fams[RHO_LEFT])


def test_fpa_language_is_L(dihedral_stack):
    assert language_equal(dihedral_stack.fpa.product, dihedral_stack.L)


def test_split_fpa_trivial(split_stack):
    ext, fams = split_stack
    F = build_fpa(fams[Q_LEFT])
    zero = ext.pushout_kernel.zero()
    for s in F.T:
        for x in ext.base.alphabet.letters:
            assert F.a_of(s, x) == zero


def test_fpa_branches_partition_L(dihedral_stack):
    F = dihedral_stack.fpa
    full = set(enumerate_language(F.product, 8))
    parts = [set(enumerate_language(fpa_branch(F, s), 8)) for s in F.T]
    assert set().union(*parts) == full
    assert sum(len(p) for p in parts) == len(full)


def test_t1s_fpa_builds(t1s_stack):
    F = t1s_stack.fpa
    assert len(F.T) >= 1
    assert language_equal(F.product, t1s_stack.L)


def test_compatibility(dihedral_stack):
    F = dihedral_stack.fpa
    some = next(iter(F.T))
    assert is_compatible(F, some, "")
    outside_T = next(s for s in range(F.product.n_states) if s not in F.T)
    with pytest.raises(NotAcceptingState):
        fpa_branch(F, outside_T)
    with pytest.raises(NotAcceptingState):
        is_compatible(F, outside_T, "")
    with pytest.raises(AlphabetMismatch):
        is_compatible(F, some, "q")
    # w in L(s̄) and v compatible imply wv in L, exhaustively
    for s in F.T:
        ws = [w for w in enumerate_language(fpa_branch(F, s), 4)]
        for v in words_up_to(F.product.alphabet, 4):
            ok = is_compatible(F, s, v)
            for w in ws[:3]:
                assert F.product.accepts(w + v) == ok, (w, v)


def test_sigma_q_of_state_routes(dihedral_stack):
    # the automaton readout against the cocycle at the shortest witness
    F = dihedral_stack.fpa
    ext = dihedral_stack.ext
    for s in F.T:
        assert sigma_q_of_state(F, s, "").is_zero()
        w = shortest_witness(F, s)
        for v in words_up_to(F.product.alphabet, 5):
            if not is_compatible(F, s, v):
                continue
            assert sigma_q_of_state(F, s, v) == sigma_q(ext, w, v), (s, v)
    with pytest.raises(Incompatible):
        s = next(iter(F.T))
        v = next(
            v
            for v in words_up_to(F.product.alphabet, 2)
            if not is_compatible(F, s, v)
        )
        sigma_q_of_state(F, s, v)
    outside_T = next(s for s in range(F.product.n_states) if s not in F.T)
    with pytest.raises(NotAcceptingState):
        sigma_q_of_state(F, outside_T, "")


def test_fpa_key_property_dihedral(dihedral_stack):
    report = check_fpa_key_property(dihedral_stack.fpa, 6, 4)
    assert report.passed
    assert check_fpa_key_property(dihedral_stack.fpa, 0, 0).passed


def test_fpa_key_property_q8(q8_stack):
    assert check_fpa_key_property(q8_stack.fpa, 5, 3).passed


def scan_a_of(F, s, x):
    """Every value a whose (x, a)-component accepts at s, by a scan of
    all components."""
    tup = F.tuples[s]
    return [
        a
        for i, (xc, a, M) in enumerate(F.components)
        if xc == x and tup[i] in M.accepting
    ]


@pytest.mark.parametrize("stack_name", ["q8_stack", "t1s_stack"])
def test_a_of_table_matches_component_scan(request, stack_name):
    stack = request.getfixturevalue(stack_name)
    for F in (stack.fpa, stack.lfpa, stack.rfpa):
        letters = F.product.alphabet.letters
        assert F.T
        for s in F.T:
            for x in letters:
                assert [F.a_of(s, x)] == scan_a_of(F, s, x), (s, x)
        outside = set(range(F.product.n_states)) - F.T
        assert outside
        for s in outside:
            for x in letters:
                with pytest.raises(NotAcceptingState):
                    F.a_of(s, x)


def test_witness_words_land_in_branch(q8_stack):
    F = q8_stack.fpa
    for s in F.T:
        w = shortest_witness(F, s)
        assert F.product.run(w) == s


# -- LFPA / RFPA --------------------------------------------------------


def test_lfpa_readout_matches_sigma_rho(dihedral_stack):
    F = dihedral_stack.lfpa
    ext = dihedral_stack.ext
    for w in enumerate_language(F.product, 6):
        s = F.product.run(w)
        for x in ext.base.alphabet.letters:
            assert F.a_of(s, x) == sigma_rho(ext, w, x)


def test_rfpa_accepts_L_inverse(dihedral_stack):
    # L is inverse-closed, so the RFPA language coincides with L
    F = dihedral_stack.rfpa
    alpha = F.product.alphabet
    for w in words_up_to(alpha, 6):
        assert F.product.accepts(w) == dihedral_stack.L.accepts(alpha.inverse_word(w))


def test_rfpa_readout_matches_sigma_rho(dihedral_stack):
    F = dihedral_stack.rfpa
    ext = dihedral_stack.ext
    alpha = F.product.alphabet
    for w in enumerate_language(dihedral_stack.L, 6):
        s = F.product.run(w)
        assert s in F.T
        for x in alpha.letters:
            assert F.a_of(s, x) == sigma_rho(ext, x, alpha.inverse_word(w))


def test_split_predictors_trivial(split_stack):
    ext, fams = split_stack
    M1 = build_lfpa(fams[RHO_LEFT])
    M2 = build_rfpa(fams[RHO_RIGHT_REVERSED])
    zero = ext.kernel.zero()
    for s in M1.T:
        for x in ext.base.alphabet.letters:
            assert M1.a_of(s, x) == zero
    for s in M2.T:
        for x in ext.base.alphabet.letters:
            assert M2.a_of(s, x) == zero


# -- PPA ----------------------------------------------------------------


def test_ppa_language_is_L(dihedral_stack):
    assert language_equal(dihedral_stack.ppa.fsa, dihedral_stack.L)


def test_ppa_branches_partition_L(dihedral_stack):
    D = dihedral_stack.ppa
    full = set(enumerate_language(D.fsa, 8))
    parts = [
        set(enumerate_language(ppa_branch(D, d), 8))
        for d in parity_elements(dihedral_stack.ext.kernel)
    ]
    assert set().union(*parts) == full
    assert sum(len(p) for p in parts) == len(full)


def test_ppa_initial_branch_holds_identity(dihedral_stack):
    D = dihedral_stack.ppa
    zero = ParityElement.zero(dihedral_stack.ext.kernel)
    assert ppa_branch(D, zero).accepts("")


def test_split_ppa_single_branch(split_stack):
    ext, fams = split_stack
    D = build_ppa(build_lfpa(fams[RHO_LEFT]), build_rfpa(fams[RHO_RIGHT_REVERSED]), ext)
    zero = ParityElement.zero(ext.kernel)
    assert D.branch_values() == [zero]
    assert language_equal(ppa_branch(D, zero), D.fsa)


def test_ppa_key_property_dihedral(dihedral_stack):
    report = check_ppa_key_property(dihedral_stack.ppa, R=8)
    assert report.passed
    assert check_ppa_key_property(dihedral_stack.ppa, R=0).passed


def test_ppa_key_property_q8(q8_stack):
    assert check_ppa_key_property(q8_stack.ppa, R=6).passed


def test_ppa_key_property_t1s(t1s_stack):
    assert check_ppa_key_property(t1s_stack.ppa, R=4).passed


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
                    d = D.states[s][2]
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
    one = ParityElement(kernel, (1,), ())
    states = list(D.states)
    flipped, sunk = sorted(D.fsa.accepting)[-2:]
    m1, m2, d = states[flipped]
    states[flipped] = (m1, m2, d + one)
    states[sunk] = None
    for ppa in (D, replace(D, states=states, memo={})):
        report = check_ppa_key_property(ppa, R=R)
        assert list(report.counterexamples) == _string_route_ppa_check(ppa, R)
    if R == 6:
        assert {c[0] for c in report.counterexamples} == {"branch", "sink-accepting"}


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
        reps=fam.reps,
    )
    F = build_fpa(broken)
    report = check_fpa_key_property(F, 4, 3)
    assert not report.passed
    assert report.counterexamples[0][0] in ("state-route", "pair")
