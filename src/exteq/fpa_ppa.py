"""Predicting automata over the validated predictor families.

In the paper the future predicting automaton (FPA) is the product of one
predictor automaton per letter x and value a, and its accepting set T
holds the states that pin down a unique cocycle value a(s̄, x) for every
letter.  All predictors of a family share the family's graph and differ
only in their accepting sets, so that product is the graph itself: the
FPA F is the validated q-left family (`lrational.PredictorFamily`), T
its live states and a(s̄, x) its values.  The rho-left and reversed
families are the LFPA and RFPA; all three read the plain word w on one
signature graph.  The parity predicting automaton (PPA), the product of
LFPA and RFPA, is therefore that graph with a parity register: it
accumulates the parity of sigma_rho(w, w^-1) letter by letter.

Each construction comes with a harness that re-derives its key property
and reports every counterexample: the FPA's by direct cocycle evaluation,
the PPA's by the validation walk over the cocycle tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .abelian import FGAElement, pa
from .automata import FSA, coaccessible, explore, restrict_accepting
from .errors import Incompatible, NotAcceptingState, ResourceBound
from .extension import BallCocycles, CentralExtension, sigma_q, sigma_rho
from .lrational import PredictorFamily, ValidationReport, _walk
from .words import Word, state_cap


def fpa_branch(F: PredictorFamily, s: int) -> FSA:
    """M(s̄): same automaton with s̄ as the only accepting state."""
    if s not in F.live:
        raise NotAcceptingState(f"state {s} not in T")
    M = F.memo.get(("M", s))
    if M is None:
        M = F.memo[("M", s)] = restrict_accepting(F.graph, [s])
    return M


def is_compatible(F: PredictorFamily, s: int, v: Word) -> bool:
    """Whether v read from s̄ stays in L, i.e. wv is in L for w in L(s̄)."""
    if s not in F.live:
        raise NotAcceptingState(f"state {s} not in T")
    return F.graph.run(v, start=s) in F.live


def sigma_q_of_state(F: PredictorFamily, s: int, v: Word) -> FGAElement:
    """sigma_q(s̄, v) = sigma_q(w, v) for any w in L(s̄), accumulated as
    a(cur, x) - a(initial-walk, x) along v from automaton readouts only."""
    if not is_compatible(F, s, v):
        raise Incompatible(f"{v!r} is not compatible with state {s}")
    acc = F.ext.pushout_kernel.zero()
    cur, icur = s, F.graph.initial
    for x in v:
        acc = acc + F.a_of(cur, x) - F.a_of(icur, x)
        cur = F.graph.step(cur, x)
        icur = F.graph.step(icur, x)
    return acc


# -- parity predicting automaton ----------------------------------------


@dataclass
class PPA:
    """The LFPA and RFPA's shared graph with the parity register.

    fsa's states index `states`, whose entries are (graph state,
    register) or None for the absorbing sink.  `memo` holds the branches
    D(d) by d, built on first use and shared, immutable, by every index
    tuple and solve of the pipeline.
    """

    M1: PredictorFamily
    M2: PredictorFamily
    fsa: FSA
    states: list[Optional[tuple[int, FGAElement]]]
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ext(self) -> CentralExtension:
        return self.M1.ext

    def branch_values(self):
        return sorted(
            {st[1] for i, st in enumerate(self.states) if i in self.fsa.accepting},
            key=FGAElement.coords,
        )


def build_ppa(M1: PredictorFamily, M2: PredictorFamily) -> PPA:
    """Run the predictors' shared graph, accumulating the parity of
    sigma_rho(x, x^-1) - sigma_rho(s̄, x) - sigma_rho(x^-1, s̄) with the
    first value read from M1 and the second from M2.  A state outside L
    steps to the absorbing sink.  Families on unequal graphs are
    refused (ValueError).
    """
    if M1.graph != M2.graph:
        raise ValueError("LFPA and RFPA on different graphs")
    ext, graph = M1.ext, M1.graph
    alpha, T = graph.alphabet, M1.live
    inverse = alpha.inverse
    sigma_xx = {x: pa(sigma_rho(ext, x, inverse[x])) for x in alpha.letters}
    a1, a2, gstep = M1.a_of, M2.a_of, graph.step

    def step(state, x):
        s, b = state
        if s not in T:
            return None
        return (gstep(s, x), b + sigma_xx[x] + pa(-a1(s, x) - a2(s, inverse[x])))

    start = (graph.initial, ext.kernel.parity().zero())
    states, rows = explore(alpha, start, step, what="parity automaton")
    accepting = frozenset(
        i for i, st in enumerate(states) if st is not None and st[0] in T
    )
    return PPA(M1, M2, FSA(alpha, rows, 0, accepting), states)


def ppa_branch(D: PPA, d: FGAElement) -> FSA:
    """D(d): accepting states restricted to register value d."""
    M = D.memo.get(d)
    if M is None:
        keep = [
            i
            for i in D.fsa.accepting
            if D.states[i] is not None and D.states[i][1] == d
        ]
        M = D.memo[d] = restrict_accepting(D.fsa, keep)
    return M


# -- brute-force harnesses ----------------------------------------------


def _pair_count(F: PredictorFamily, R: int, R_v: int) -> int:
    """The (w, v) pairs check_fpa_key_property evaluates, counted over
    the graph without listing a word: the sum over live s of the L-words
    of length <= R that end in s times the v of length <= R_v that read
    from s into a live state."""
    rows, live, n = F.graph.transitions, F.live, F.graph.n_states
    ending, reach = [0] * n, [0] * n
    reach[F.graph.initial] = 1
    for _ in range(R + 1):
        nxt = [0] * n
        for s, c in enumerate(reach):
            if c:
                ending[s] += c
                for t in rows[s]:
                    nxt[t] += c
        reach = nxt
    # tail[s]: the words of length <= k from s into a live state, k -> R_v
    tail = [int(s in live) for s in range(n)]
    for _ in range(R_v):
        tail = [(s in live) + sum(map(tail.__getitem__, rows[s])) for s in range(n)]
    return sum(ending[s] * tail[s] for s in live)


def _live_words(F: PredictorFamily, start: int, R: int, alive) -> list:
    """(w, s) for every w with |w| <= R that reads from `start` into the
    live state s, in shortlex order.  A prefix in a state outside
    `alive`, the states that reach a live one, is not extended."""
    letters, rows, live = F.graph.alphabet.letters, F.graph.transitions, F.live
    out = []
    frontier = [("", start)]
    for depth in range(R + 1):
        nxt = []
        for w, s in frontier:
            if s in live:
                out.append((w, s))
            if depth < R:
                nxt.extend((w + x, t) for x, t in zip(letters, rows[s]) if t in alive)
        frontier = nxt
    return out


def check_fpa_key_property(
    F: PredictorFamily, R: int, R_v: Optional[int] = None
) -> ValidationReport:
    """sigma_q(w1, v) = sigma_q(w2, v) for all w1, w2 in the same L(s̄)
    and every compatible v, exhaustively to |w| <= R, |v| <= R_v.

    Also cross-checks the state-route evaluation against the direct
    cocycle value.  The check evaluates one sigma_q per (w, v) pair and
    counts the pairs before it lists any word: more than state_cap()
    raise ResourceBound.  Words that reach no live state are never
    extended, so with L prefix-closed the words listed number at most
    twice the pairs.
    """
    ext = F.ext
    R_v = R if R_v is None else R_v
    pairs, cap = _pair_count(F, R, R_v), state_cap()
    if pairs > cap:
        raise ResourceBound(
            f"FPA key-property check to radius {R} would evaluate {pairs} "
            f"(w, v) pairs, over the cap {cap}"
        )
    alive = coaccessible(F.graph)
    groups: dict[int, list[Word]] = {}
    for w, s in _live_words(F, F.graph.initial, R, alive):
        groups.setdefault(s, []).append(w)
    counterexamples = []
    for s, ws in groups.items():
        baseline = ws[0]
        for v, _ in _live_words(F, s, R_v, alive):
            expect = sigma_q(ext, baseline, v)
            state_value = sigma_q_of_state(F, s, v)
            if state_value != expect:
                counterexamples.append(("state-route", s, baseline, v))
            for w in ws[1:]:
                if sigma_q(ext, w, v) != expect:
                    counterexamples.append(("pair", s, baseline, w, v))
    return ValidationReport(R, tuple(counterexamples))


def check_ppa_key_property(
    D: PPA, cocycles: BallCocycles, R: int
) -> ValidationReport:
    """Pa(sigma_rho(w, w^-1)) equals the accumulator branch of every
    accepted w with |w| <= R, and D accepts exactly the words of L.

    The validation walk (`lrational._walk`) judges it over the cocycle
    tables of D's extension, whose ball must reach radius R.
    sigma_rho(w, w^-1) is part of the class of w's element, so the walk
    judges each (PPA state, class) once and walks word by word only
    after a mismatch.  The report lists, breadth-first, ("membership",
    w, in_L, accepted) where D's acceptance differs from L, and
    ("sink-accepting", w) or ("branch", w, expected, got) for words of
    L that D accepts."""
    ext = D.ext
    if cocycles.ext is not ext:
        raise ValueError("cocycle tables belong to a different extension")
    rank = ext.kernel.rank
    table = cocycles.sigma_inverse
    parity = {v: pa(ext.kernel.element(v[:rank], v[rank:])) for v in set(table)}

    def check(w, s, g):
        if D.states[s] is None:
            return [("sink-accepting", w)]
        if parity[table[g]] != D.states[s][1]:
            return [("branch", w, parity[table[g]], D.states[s][1])]
        return ()

    return _walk(D.M1.lspec, R, cocycles.ball, D.fsa, [check], cocycles.classes)[0]
