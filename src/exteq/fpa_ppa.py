"""Predicting automata over the validated predictor families.

In the paper the future predicting automaton (FPA) is the product of one
predictor automaton per letter x and value a, and its accepting set T
holds the states that pin down a unique cocycle value a(s̄, x) for every
letter.  All predictors of a family share the family's graph and differ
only in their accepting sets, so that product is the graph itself: the
FPA F is the validated q-left family (`lrational.PredictorFamily`), T
its live states and a(s̄, x) its values.  The rho-left and reversed
families are the LFPA and RFPA; all three read the plain word w.  The
parity predicting automaton (PPA) is the one real product: it runs the
LFPA and RFPA in lockstep and accumulates the parity of
sigma_rho(w, w^-1) letter by letter.

Each construction comes with a brute-force harness that re-derives its
key property from direct cocycle evaluation and reports every
counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .abelian import FGAElement, pa
from .automata import FSA, explore, restrict_accepting
from .errors import (
    BallTooSmall,
    Incompatible,
    NotAcceptingState,
    SinkOnPrefix,
)
from .extension import BallCocycles, CentralExtension, sigma_q, sigma_rho
from .lrational import PredictorFamily
from .words import CayleyBall, Word


@dataclass(frozen=True)
class CheckReport:
    radius: int
    counterexamples: tuple

    @property
    def passed(self) -> bool:
        return not self.counterexamples


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
    """Composite of LFPA and RFPA with the parity accumulator.

    fsa's states index `states`, whose entries are (LFPA state, RFPA
    state, accumulator) or None for the absorbing sink.  `memo` holds the
    branches D(d) by d, built on first use and shared, immutable, by every
    index tuple and solve of the pipeline.
    """

    M1: PredictorFamily
    M2: PredictorFamily
    fsa: FSA
    states: list[Optional[tuple[int, int, FGAElement]]]
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ext(self) -> CentralExtension:
        return self.M1.ext

    def branch_values(self):
        return sorted(
            {st[2] for i, st in enumerate(self.states) if i in self.fsa.accepting},
            key=FGAElement.coords,
        )


def build_ppa(M1: PredictorFamily, M2: PredictorFamily) -> PPA:
    """Run both predictors in lockstep, accumulating the parity of
    sigma_rho(x, x^-1) - sigma_rho(s̄₁, x) - sigma_rho(x^-1, s̄₂).

    Composite states whose components are not both accepting step to the
    absorbing sink; if such a state is reached while exactly one
    component is accepting the input families disagree about L and the
    construction aborts.
    """
    ext, alpha = M1.ext, M1.graph.alphabet
    if alpha != M2.graph.alphabet:
        raise ValueError("LFPA and RFPA over different alphabets")
    inverse = alpha.inverse
    sigma_xx = {x: pa(sigma_rho(ext, x, inverse[x])) for x in alpha.letters}
    T1, T2, step1, step2 = M1.live, M2.live, M1.graph.step, M2.graph.step
    a1, a2 = M1.a_of, M2.a_of

    def step(state, x):
        s1, s2, b = state
        if s1 not in T1 or s2 not in T2:
            if (s1 in T1) != (s2 in T2):
                raise SinkOnPrefix(
                    f"predictors disagree about membership at ({s1}, {s2})"
                )
            return None
        b2 = b + sigma_xx[x] + pa(-a1(s1, x) - a2(s2, inverse[x]))
        return (step1(s1, x), step2(s2, x), b2)

    start = (M1.graph.initial, M2.graph.initial, ext.kernel.parity().zero())
    states, rows = explore(alpha, start, step, what="parity automaton")
    accepting = frozenset(
        i
        for i, st in enumerate(states)
        if st is not None and st[0] in T1 and st[1] in T2
    )
    return PPA(M1, M2, FSA(alpha, rows, 0, accepting), states)


def ppa_branch(D: PPA, d: FGAElement) -> FSA:
    """D(d): accepting states restricted to accumulator value d."""
    M = D.memo.get(d)
    if M is None:
        keep = [
            i
            for i in D.fsa.accepting
            if D.states[i] is not None and D.states[i][2] == d
        ]
        M = D.memo[d] = restrict_accepting(D.fsa, keep)
    return M


# -- brute-force harnesses ----------------------------------------------


def _language_by_state(F: PredictorFamily, R: int):
    """All words of length <= R grouped by their end state, L-words only."""
    groups: dict[int, list[Word]] = {}
    frontier = [("", F.graph.initial)]
    for _ in range(R + 1):
        nxt = []
        for w, s in frontier:
            if s in F.live:
                groups.setdefault(s, []).append(w)
            if len(w) < R:
                for x in F.graph.alphabet.letters:
                    nxt.append((w + x, F.graph.step(s, x)))
        frontier = nxt
    return groups


def check_fpa_key_property(
    F: PredictorFamily, R: int, R_v: Optional[int] = None
) -> CheckReport:
    """sigma_q(w1, v) = sigma_q(w2, v) for all w1, w2 in the same L(s̄)
    and every compatible v, exhaustively to |w| <= R, |v| <= R_v.

    Also cross-checks the state-route evaluation against the direct
    cocycle value.
    """
    ext = F.ext
    R_v = R if R_v is None else R_v
    counterexamples = []
    groups = _language_by_state(F, R)
    for s, ws in groups.items():
        vs = [("", s)]
        compatible: list[Word] = []
        for _ in range(R_v + 1):
            nxt = []
            for v, cur in vs:
                if cur in F.live:
                    compatible.append(v)
                if len(v) < R_v:
                    for x in F.graph.alphabet.letters:
                        nxt.append((v + x, F.graph.step(cur, x)))
            vs = nxt
        baseline = ws[0]
        for v in compatible:
            expect = sigma_q(ext, baseline, v)
            state_value = sigma_q_of_state(F, s, v)
            if state_value != expect:
                counterexamples.append(("state-route", s, baseline, v))
            for w in ws[1:]:
                if sigma_q(ext, w, v) != expect:
                    counterexamples.append(("pair", s, baseline, w, v))
    return CheckReport(R, tuple(counterexamples))


def check_ppa_key_property(D: PPA, ball: CayleyBall, R: int) -> CheckReport:
    """Pa(sigma_rho(w, w^-1)) equals the accumulator branch of every
    accepted w with |w| <= R; L-prefixes never reach the sink.

    sigma_rho(w, w^-1) is read from the cocycle tables over the given
    ball, which must reach radius R, and evaluated by the string route
    where they read None."""
    if ball.radius < R:
        raise BallTooSmall(f"PPA check to radius {R} needs a ball of radius "
                           f">= {R}, ball has {ball.radius}")
    ext = D.ext
    kernel = ext.kernel
    alpha = D.fsa.alphabet
    table = BallCocycles(ext, ball).sigma_inverse
    counterexamples = []
    # (w, state, ball index of w)
    frontier = [("", D.fsa.initial, 0)]
    for _ in range(R + 1):
        nxt = []
        for w, s, g in frontier:
            if s in D.fsa.accepting:
                if D.states[s] is None:
                    counterexamples.append(("sink-accepting", w))
                else:
                    d = D.states[s][2]
                    v = table[g]
                    direct = (
                        pa(sigma_rho(ext, w, alpha.inverse_word(w)))
                        if v is None
                        else pa(kernel.element(v[: kernel.rank], v[kernel.rank :]))
                    )
                    if direct != d:
                        counterexamples.append(("branch", w, direct, d))
            if len(w) < R:
                for x in alpha.letters:
                    nxt.append((w + x, D.fsa.step(s, x), ball.edges[g][x]))
        frontier = nxt
    return CheckReport(R, tuple(counterexamples))
