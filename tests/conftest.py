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

from exteq.automata import FSA, coaccessible, product
from exteq.extension import CentralExtension
from exteq.fpa_ppa import FPA, PPA, build_fpa, build_lfpa, build_ppa, build_rfpa
from exteq.instances import (
    default_language_spec,
    dihedral_z,
    modular16,
    quaternion8,
    t1s,
)
from exteq.lrational import LanguageSpec, PredictorFamily, build_automata
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
    L, fams = build_automata(ext, lspec, 4, R_validate, ball=ball)
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
