"""Session-scoped builds of the full automaton stack per instance.

Synthesis plus validation is the expensive part of the suite; building
each instance's language automaton, predictor families and products once
keeps the suite fast without weakening any test.  Also holds the
cross-check helpers that several test files share and the program does
not use.
"""

from collections import deque
from dataclasses import dataclass

import pytest

from exteq.abelian import FGAGroup
from exteq.automata import FSA, coaccessible
from exteq.errors import AlphabetMismatch
from exteq.extension import BallCocycles, CentralExtension
from exteq.fpa_ppa import FPA, PPA, build_fpa, build_lfpa, build_ppa, build_rfpa
from exteq.instances import (
    default_language_spec,
    dihedral_z,
    modular16,
    quaternion8,
    split,
    t1s,
)
from exteq.lrational import (
    LanguageSpec,
    PredictorFamily,
    _family_machine,
    _walk,
    build_automata,
)
from exteq.words import Alphabet, CayleyBall, Presentation, Word, build_ball


# -- cross-check helpers shared by several test files ---------------------


def free_presentation(generators=("a", "b")) -> Presentation:
    return Presentation(Alphabet.from_generators(list(generators)), ())


def is_empty(M: FSA) -> bool:
    seen = {M.initial}
    queue = deque([M.initial])
    while queue:
        s = queue.popleft()
        if s in M.accepting:
            return False
        for t in M.transitions[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return True


def product(Ms, accept_predicate) -> tuple[FSA, list[tuple[int, ...]]]:
    """Reachable product automaton, states numbered in breadth-first
    discovery order; returns (FSA, state tuples by index)."""
    alpha = Ms[0].alphabet
    if any(M.alphabet != alpha for M in Ms):
        raise AlphabetMismatch("product components over different alphabets")
    start = tuple(M.initial for M in Ms)
    index = {start: 0}
    tuples = [start]
    rows = []
    for cur in tuples:  # grows as the loop runs
        row = []
        for xi in range(len(alpha.letters)):
            nxt = tuple(M.transitions[s][xi] for M, s in zip(Ms, cur))
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(tuples)
                tuples.append(nxt)
            row.append(j)
        rows.append(tuple(row))
    accepting = frozenset(i for i, tup in enumerate(tuples) if accept_predicate(tup))
    return FSA(alpha, tuple(rows), 0, accepting), tuples


def predictor(fam: PredictorFamily, x: str, a) -> FSA:
    """The family's (x, a) predictor: its graph accepting the live states
    whose value against x is a."""
    G = fam.graph
    acc = frozenset(s for s in fam.live if fam.values[x][s] == a)
    return FSA(G.alphabet, G.transitions, G.initial, acc)


def reference_fpa(fam: PredictorFamily):
    """The FPA as the paper builds it: the reachable product of every
    (x, a) predictor, accepting where exactly one value per letter is
    accepted.  Returns (product, scan) with scan[x][s] the values whose
    component accepts at product state s."""
    letters = fam.graph.alphabet.letters
    comps = [(x, a, predictor(fam, x, a)) for x in letters for a in fam.value_sets[x]]

    def hits(tup, x):
        return [a for (xc, a, M), s in zip(comps, tup) if xc == x and s in M.accepting]

    prod, tuples = product(
        [M for _, _, M in comps],
        lambda tup: all(len(hits(tup, x)) == 1 for x in letters),
    )
    return prod, {x: [hits(tup, x) for tup in tuples] for x in letters}


def language_equal(M1: FSA, M2: FSA) -> bool:
    prod, _ = product(
        [M1, M2],
        lambda tup: (tup[0] in M1.accepting) != (tup[1] in M2.accepting),
    )
    return is_empty(prod)


def enumerate_language(M: FSA, maxlen: int) -> list[Word]:
    """All accepted words of length <= maxlen, in shortlex order."""
    alive = coaccessible(M)
    out: list[Word] = []
    frontier = [("", M.initial)] if M.initial in alive else []
    for _ in range(maxlen + 1):
        nxt = []
        for w, s in frontier:
            if s in M.accepting:
                out.append(w)
            for x in M.alphabet.letters:
                t = M.step(s, x)
                if t in alive:
                    nxt.append((w + x, t))
        frontier = nxt
    # trim words that exceeded maxlen in the last expansion
    return [w for w in out if len(w) <= maxlen]


def shortest_witness(F: FPA, s: int) -> Word:
    """Shortlex-least word reaching s from the initial state."""
    if F.product.initial == s:
        return ""
    seen = {F.product.initial}
    frontier = [("", F.product.initial)]
    while frontier:
        nxt = []
        for w, cur in frontier:
            for x in F.product.alphabet.letters:
                t = F.product.step(cur, x)
                if t == s:
                    return w + x
                if t not in seen:
                    seen.add(t)
                    nxt.append((w + x, t))
        frontier = nxt
    raise AssertionError(f"state {s} unreachable")


def walk_alone(automaton, R: int, ball: CayleyBall, lspec=None, cocycles=None):
    """The validation report of one automaton walked alone to radius R:
    a language automaton (an FSA, judged against lspec's L) or a
    predictor family, its expected values read from `cocycles` (the
    family's extension over the ball, built here unless given)."""
    if isinstance(automaton, PredictorFamily):
        lspec, ext = automaton.lspec, automaton.ext
        cocycles = cocycles or BallCocycles(ext, ball)
        machine = _family_machine(automaton, ext, cocycles)
    else:
        machine = (automaton, automaton.accepting, (), None)
    return _walk(lspec, R, ball, [machine])[0]


def validated_L(p: Presentation, R: int, lspec=None) -> FSA:
    """L of the split extension of p by Z, built by build_automata and
    validated to radius R (default_language_spec(p) unless given)."""
    ext = split(p, FGAGroup(1))
    L, _ = build_automata(ext, lspec or default_language_spec(p), R, build_ball(p, R))
    return L


@dataclass
class Stack:
    ext: CentralExtension
    lspec: LanguageSpec
    ball: CayleyBall
    L: FSA
    fams: dict[str, PredictorFamily]
    fpa: FPA
    lfpa: FPA
    rfpa: FPA
    ppa: PPA


def _build_stack(ext: CentralExtension, R_validate: int, ball_radius=None) -> Stack:
    lspec = default_language_spec(ext.base)
    ball = build_ball(ext.base, ball_radius or R_validate)
    L, fams = build_automata(ext, lspec, R_validate, ball)
    fpa = build_fpa(fams["q-left"])
    lfpa = build_lfpa(fams["rho-left"])
    rfpa = build_rfpa(fams["rho-right-reversed"])
    ppa = build_ppa(lfpa, rfpa, ext)
    return Stack(ext, lspec, ball, L, fams, fpa, lfpa, rfpa, ppa)


@pytest.fixture(scope="session")
def dihedral_stack():
    return _build_stack(dihedral_z(), 8)


@pytest.fixture(scope="session")
def q8_stack():
    return _build_stack(quaternion8(), 7)


@pytest.fixture(scope="session")
def modular16_stack():
    return _build_stack(modular16(), 6)


@pytest.fixture(scope="session")
def t1s_stack():
    return _build_stack(t1s(), 5)
