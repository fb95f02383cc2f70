"""Session-scoped builds of the full automaton stack per instance.

Synthesis plus validation is the expensive part of the suite; building
each instance's predictor families and products once keeps the suite
fast without weakening any test.  Also holds the cross-check helpers
that several test files share and the program does not use, among them
the per-automaton synthesis that the one signature graph replaced.
"""

from collections import deque
from dataclasses import dataclass

import pytest

from exteq import words
from exteq.abelian import FGAGroup
from exteq.automata import FSA, coaccessible
from exteq.errors import AlphabetMismatch, ResourceBound
from exteq.automata import explore
from exteq.extension import BallCocycles, CentralExtension, sigma_q, sigma_rho
from exteq.fpa_ppa import PPA, build_ppa
from exteq.instances import (
    default_language_spec,
    dihedral_z,
    modular16,
    quaternion8,
    t1s,
)
from exteq.lrational import (
    _DEAD,
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    LanguageSpec,
    PredictorFamily,
    _MatchScheme,
    _family_machine,
    _walk,
    build_automata,
)
from exteq.words import (
    Alphabet,
    CayleyBall,
    Presentation,
    Word,
    build_ball,
)


# -- cross-check helpers shared by several test files ---------------------


def free_presentation(generators=("a", "b")) -> Presentation:
    return Presentation(Alphabet.from_generators(list(generators)), ())


def split(base: Presentation, kernel: FGAGroup) -> CentralExtension:
    """Split extension: every relator lifts to the kernel identity."""
    return CentralExtension(base, kernel, tuple(kernel.zero() for _ in base.relators))


def _find_shorten(table, max_len, min_len, w: Word):
    """The leftmost shortening key in w, longest first, found by slicing
    every (position, length) pair: (position, key, table entry) or None."""
    for i in range(len(w)):
        top = min(max_len, len(w) - i)
        for length in range(top, min_len - 1, -1):
            hit = table.get(w[i : i + length])
            if hit is not None:
                return i, w[i : i + length], hit
    return None


def reference_reduce_with_log(p: Presentation, w: Word) -> tuple[Word, list]:
    """The reducer as it was when it logged every relator application as
    (relator index, sign, position): the same rewriting, the log in
    place of the count vector."""
    alpha = p.alphabet
    shorten, swaps, max_len, min_len, swap_max = p.tables
    n = len(w)
    w = alpha.free_reduce(w)
    log: list = []
    while True:
        if shorten:
            hit = _find_shorten(shorten, max_len, min_len, w)
            if hit is not None:
                i, u, (v, k, sign) = hit
                w = alpha.free_reduce(w[:i] + v + w[i + len(u) :])
                log.append((k, sign, i))
                continue
        if not swaps:
            return w, log
        visited = {w: log}
        queue = deque([w])
        restart = None
        while queue and restart is None:
            cur = queue.popleft()
            cur_log = visited[cur]
            for i in range(len(cur)):
                top = min(swap_max, len(cur) - i)
                for length in range(top, 0, -1):
                    for v, k, sign in swaps.get(cur[i : i + length], ()):
                        nxt = alpha.free_reduce(cur[:i] + v + cur[i + length :])
                        nlog = cur_log + [(k, sign, i)]
                        if len(nxt) < len(cur):
                            restart = (nxt, nlog)
                            break
                        if nxt not in visited:
                            if len(visited) > words._SWAP_CLOSURE_CAP:
                                raise ResourceBound(
                                    f"swap closure exceeds cap {words._SWAP_CLOSURE_CAP}"
                                    f" while reducing a word of length {n}"
                                )
                            visited[nxt] = nlog
                            if shorten and _find_shorten(shorten, max_len, min_len, nxt):
                                restart = (nxt, nlog)
                                break
                            queue.append(nxt)
                    if restart:
                        break
                if restart:
                    break
        if restart is not None:
            w, log = restart
            continue
        if len(visited) == 1:
            return w, log
        best = min(visited, key=alpha.shortlex_key)
        return best, visited[best]


def log_counts(p: Presentation, log) -> tuple[int, ...]:
    """The per-relator signed sums of a reference log."""
    acc = [0] * len(p.relators)
    for k, sign, _pos in log:
        acc[k] += sign
    return tuple(acc)


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


def shortest_witness(F: PredictorFamily, s: int) -> Word:
    """Shortlex-least word reaching s from the initial state."""
    if F.graph.initial == s:
        return ""
    seen = {F.graph.initial}
    frontier = [("", F.graph.initial)]
    while frontier:
        nxt = []
        for w, cur in frontier:
            for x in F.graph.alphabet.letters:
                t = F.graph.step(cur, x)
                if t == s:
                    return w + x
                if t not in seen:
                    seen.add(t)
                    nxt.append((w + x, t))
        frontier = nxt
    raise AssertionError(f"state {s} unreachable")


def walk_alone(automaton, R: int, ball: CayleyBall, lspec=None, cocycles=None):
    """The validation report of one automaton walked alone to radius R:
    a language automaton (an FSA, judged against lspec's L, with no
    values to check) or a predictor family, its expected values read
    from `cocycles` (the family's extension over the ball, built here
    unless given)."""
    if isinstance(automaton, PredictorFamily):
        lspec, ext = automaton.lspec, automaton.ext
        cocycles = cocycles or BallCocycles(ext, ball)
        machine = _family_machine(automaton, cocycles)
    else:
        machine = (automaton, lambda w, s, g: (), [0] * len(ball))
    return _walk(lspec, R, ball, [machine])[0]


def validated_L(p: Presentation, R: int, lspec=None) -> FSA:
    """L of the split extension of p by Z: the left graph, built by
    build_automata and validated to radius R (default_language_spec(p)
    unless given)."""
    ext = split(p, FGAGroup(1))
    lspec = lspec or default_language_spec(p)
    fams = build_automata(ext, lspec, R, BallCocycles(ext, build_ball(p, R)))
    return fams[Q_LEFT].graph


# -- the per-automaton synthesis the one signature graph replaced ---------


def reversed_step(lspec: LanguageSpec):
    """The value signature of w^-1, stepped by the letter z prepended to
    it: the leading window of the normal form, or, on the
    relator-fragment scheme, the longest prefix that is a suffix of a
    cyclic rotation of a (possibly inverted) relator."""
    p = lspec.presentation
    if lspec.window is not None:
        return lambda sig, z: words.normal_form(p, z + sig)[: lspec.window]
    suffixes = {
        c[-cut:]
        for r in p.relators
        for base in (r, p.alphabet.inverse_word(r))
        for c in (base[j:] + base[:j] for j in range(len(base)))
        for cut in range(1, len(c) + 1)
    }

    def step(sig, z):
        cand = z + sig
        while cand and cand not in suffixes:
            cand = cand[:-1]
        return cand

    return step


def reference_graph(lspec: LanguageSpec, kind):
    """The signature graph of L (kind None) or of one family, synthesized
    on its own: L on the membership signature alone; the q-left and
    rho-left families on (membership, forward value), except on the
    relator-fragment scheme, where they too read membership alone; the
    reversed family on (membership, value of w^-1).  Returns (FSA, reps),
    reps[s] the first word found to reach s."""
    scheme = lspec.scheme
    alpha = lspec.presentation.alphabet
    lstep, start = scheme.lsig_step, (scheme.lsig_initial(),)
    if kind == RHO_RIGHT_REVERSED:
        start += ("",)
        rstep = reversed_step(lspec)

        def vstep(sig, x):
            return rstep(sig, alpha.inverse[x])
    elif kind is not None and not isinstance(scheme, _MatchScheme):
        vstep = scheme.vsig_step
        start += (scheme.vsig_initial(),)

    def step(state, x):
        l2 = lstep(state[0], x)
        if l2 == _DEAD:
            return None
        return (l2,) if len(state) == 1 else (l2, vstep(state[1], x))

    states, rows = explore(alpha, start, step, what="signature space")
    reps: list = [""] + [None] * (len(states) - 1)
    for i, row in enumerate(rows):
        for x, j in zip(alpha.letters, row):
            if reps[j] is None:
                reps[j] = reps[i] + x
    live = frozenset(i for i, st in enumerate(states) if st is not None)
    return FSA(alpha, rows, 0, live), tuple(reps)


def string_route_value(ext, kind, w, x):
    """sigma_q(w, x), sigma_rho(w, x) or sigma_rho(x, w^-1), by kind."""
    if kind == Q_LEFT:
        return sigma_q(ext, w, x)
    if kind == RHO_LEFT:
        return sigma_rho(ext, w, x)
    return sigma_rho(ext, x, ext.base.alphabet.inverse_word(w))


def reference_family(ext, kind, lspec) -> PredictorFamily:
    """The family on its own reference graph, each live state's values
    evaluated by the string route at its representative word."""
    graph, reps = reference_graph(lspec, kind)
    letters = ext.base.alphabet.letters
    values = {
        x: tuple(
            string_route_value(ext, kind, reps[s], x) if s in graph.accepting else None
            for s in range(graph.n_states)
        )
        for x in letters
    }
    value_sets = {
        x: tuple(
            sorted({values[x][s] for s in graph.accepting}, key=lambda a: a.coords())
        )
        for x in letters
    }
    return PredictorFamily(kind, ext, lspec, graph, values, value_sets)


@dataclass
class Stack:
    """An instance's validated families: fpa, the q-left family, whose
    graph is L; lfpa and rfpa, the rho-left and reversed families; the
    PPA over the last two; and the cocycle tables over the ball that the
    validation walk read."""

    ext: CentralExtension
    lspec: LanguageSpec
    ball: CayleyBall
    fams: dict[str, PredictorFamily]
    ppa: PPA
    cocycles: BallCocycles

    @property
    def fpa(self) -> PredictorFamily:
        return self.fams[Q_LEFT]

    @property
    def lfpa(self) -> PredictorFamily:
        return self.fams[RHO_LEFT]

    @property
    def rfpa(self) -> PredictorFamily:
        return self.fams[RHO_RIGHT_REVERSED]


def _build_stack(ext: CentralExtension, R_validate: int, ball_radius=None) -> Stack:
    lspec = default_language_spec(ext.base)
    ball = build_ball(ext.base, ball_radius or R_validate)
    cocycles = BallCocycles(ext, ball)
    fams = build_automata(ext, lspec, R_validate, cocycles)
    ppa = build_ppa(fams[RHO_LEFT], fams[RHO_RIGHT_REVERSED])
    return Stack(ext, lspec, ball, fams, ppa, cocycles)


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
