"""Product automata over the predictor families.

The future predicting automaton (FPA) is the reachable product of the
per-letter, per-value predictor automata; its accepting set T consists of
the product states that pin down, for every letter x, a unique cocycle
value a(s̄, x).  The left/right variants (LFPA/RFPA) do the same for the
section cocycle; the parity predicting automaton (PPA) runs both and
accumulates the parity of sigma_rho(w, w^-1) letter by letter.

Each construction comes with a brute-force harness that re-derives its
key property from direct cocycle evaluation and reports every
counterexample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .abelian import FGAElement, ParityElement, pa
from .automata import FSA, product, restrict_accepting
from .errors import (
    Incompatible,
    NotAcceptingState,
    ResourceBound,
    SinkOnPrefix,
)
from .extension import BallCocycles, CentralExtension, sigma_q, sigma_rho
from .lrational import (
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    PredictorFamily,
)
from .words import Word, build_ball, state_cap


@dataclass(frozen=True)
class CheckReport:
    radius: int
    counterexamples: tuple

    @property
    def passed(self) -> bool:
        return not self.counterexamples


@dataclass
class FPA:
    """Reachable product of a predictor family with its value readout.

    `memo` holds the constraint automata the reduction reads off this
    product: the branches M(s̄), the accumulator graphs keyed by s', L(b)
    and L(e).  Each depends only on its key, so it is built on first use
    and shared, immutable, by every index tuple and solve of the pipeline.
    """

    fam: PredictorFamily
    product: FSA
    tuples: list[tuple[int, ...]]
    components: tuple[tuple[str, FGAElement, FSA], ...]  # (x, a, M_{x,a})
    T: frozenset[int]
    memo: dict = field(default_factory=dict, repr=False, compare=False)
    # a(s, x) by letter, for s in T: the value of the one (x, a)-component
    # accepting at s
    _values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.product.n_states
        self._values = {x: [None] * n for x, _, _ in self.components}
        for i, (x, a, M) in enumerate(self.components):
            col = self._values[x]
            for s in self.T:
                if self.tuples[s][i] in M.accepting:
                    if col[s] is not None:
                        raise NotAcceptingState(
                            f"state {s} has several values for {x!r}"
                        )
                    col[s] = a

    @property
    def ext(self) -> CentralExtension:
        return self.fam.ext

    def a_of(self, s: int, x: str) -> FGAElement:
        """The unique value a with the (x, a)-component accepting at s."""
        if s not in self.T:
            raise NotAcceptingState(f"state {s} not in T")
        a = self._values[x][s] if x in self._values else None
        if a is None:
            raise NotAcceptingState(f"state {s} has no value for {x!r}")
        return a


def _accepting_tuple(components, letters):
    def is_T(tup):
        for x in letters:
            hits = sum(
                1
                for i, (xc, _, M) in enumerate(components)
                if xc == x and tup[i] in M.accepting
            )
            if hits != 1:
                return False
        return True

    return is_T


def _build_product(fam: PredictorFamily, cap: Optional[int]) -> FPA:
    letters = fam.graph.alphabet.letters
    components = tuple(
        (x, a, fam.automaton(x, a)) for x in letters for a in fam.value_sets[x]
    )
    prod, tuples = product(
        [M for _, _, M in components],
        _accepting_tuple(components, letters),
        cap,
    )
    return FPA(fam, prod, tuples, components, prod.accepting)


def build_fpa(fam: PredictorFamily, cap: Optional[int] = None) -> FPA:
    """Future predicting automaton from a validated q-left family."""
    if fam.kind != Q_LEFT:
        raise ValueError(f"FPA needs a {Q_LEFT} family, got {fam.kind}")
    return _build_product(fam, cap)


def build_lfpa(fam: PredictorFamily, cap: Optional[int] = None) -> FPA:
    if fam.kind != RHO_LEFT:
        raise ValueError(f"LFPA needs a {RHO_LEFT} family, got {fam.kind}")
    return _build_product(fam, cap)


def build_rfpa(fam: PredictorFamily, cap: Optional[int] = None) -> FPA:
    """Right future predicting automaton.

    The component automata read the letter-inverted tape; the composite
    transition feeds each the inverse of the consumed letter, so the
    result reads plain words and its readout at the end of w is
    sigma_rho(x, w^-1).
    """
    if fam.kind != RHO_RIGHT_REVERSED:
        raise ValueError(f"RFPA needs a {RHO_RIGHT_REVERSED} family, got {fam.kind}")
    F = _build_product(fam, cap)
    alpha = F.product.alphabet
    perm = [alpha.index(alpha.inverse[x]) for x in alpha.letters]
    rows = tuple(
        tuple(row[j] for j in perm) for row in F.product.transitions
    )
    flipped = FSA(alpha, rows, F.product.initial, F.product.accepting)
    return FPA(fam, flipped, F.tuples, F.components, F.T)


def fpa_branch(F: FPA, s: int) -> FSA:
    """M(s̄): same automaton with s̄ as the only accepting state."""
    if s not in F.T:
        raise NotAcceptingState(f"state {s} not in T")
    M = F.memo.get(("M", s))
    if M is None:
        M = F.memo[("M", s)] = restrict_accepting(F.product, [s])
    return M


def is_compatible(F: FPA, s: int, v: Word) -> bool:
    """Whether v read from s̄ stays in L, i.e. wv is in L for w in L(s̄)."""
    if s not in F.T:
        raise NotAcceptingState(f"state {s} not in T")
    return F.product.run(v, start=s) in F.product.accepting


def sigma_q_of_state(F: FPA, s: int, v: Word) -> FGAElement:
    """sigma_q(s̄, v) = sigma_q(w, v) for any w in L(s̄), accumulated as
    a(cur, x) - a(initial-walk, x) along v from automaton readouts only."""
    if not is_compatible(F, s, v):
        raise Incompatible(f"{v!r} is not compatible with state {s}")
    acc = F.ext.pushout_kernel.zero()
    cur, icur = s, F.product.initial
    for x in v:
        acc = acc + F.a_of(cur, x) - F.a_of(icur, x)
        cur = F.product.step(cur, x)
        icur = F.product.step(icur, x)
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

    M1: FPA
    M2: FPA
    ext: CentralExtension
    fsa: FSA
    states: list[Optional[tuple[int, int, ParityElement]]]
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def branch_values(self):
        return sorted(
            {st[2] for i, st in enumerate(self.states) if i in self.fsa.accepting},
            key=lambda p: (p.bits, p.tors),
        )


def build_ppa(
    M1: FPA, M2: FPA, ext: CentralExtension, cap: Optional[int] = None
) -> PPA:
    """Run both predictors in lockstep, accumulating the parity of
    sigma_rho(x, x^-1) - sigma_rho(s̄₁, x) - sigma_rho(x^-1, s̄₂).

    Composite states whose components are not both accepting step to the
    absorbing sink; if such a state is reached while exactly one
    component is accepting the input families disagree about L and the
    construction aborts.
    """
    cap = cap if cap is not None else state_cap()
    alpha = M1.product.alphabet
    if alpha != M2.product.alphabet:
        raise ValueError("LFPA and RFPA over different alphabets")
    sigma_xx = {
        x: pa(sigma_rho(ext, x, alpha.inverse[x])) for x in alpha.letters
    }
    start = (M1.product.initial, M2.product.initial, ParityElement.zero(ext.kernel))
    states: list[Optional[tuple[int, int, ParityElement]]] = [start, None]
    index = {start: 0}
    rows: list[list[int]] = [[], []]
    sink_index = 1
    queue = deque([0])
    while queue:
        i = queue.popleft()
        s1, s2, b = states[i]
        live = s1 in M1.T and s2 in M2.T
        if not live:
            if (s1 in M1.T) != (s2 in M2.T):
                raise SinkOnPrefix(
                    f"predictors disagree about membership at state {i}"
                )
        row = []
        for x in alpha.letters:
            if not live:
                row.append(sink_index)
                continue
            b2 = b + sigma_xx[x] + pa(
                -M1.a_of(s1, x) - M2.a_of(s2, alpha.inverse[x])
            )
            nxt = (M1.product.step(s1, x), M2.product.step(s2, x), b2)
            j = index.get(nxt)
            if j is None:
                if len(states) >= cap:
                    raise ResourceBound(f"parity automaton exceeds cap {cap}")
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                rows.append([])
                queue.append(j)
            row.append(j)
        rows[i] = row
    rows[sink_index] = [sink_index] * len(alpha.letters)
    accepting = frozenset(
        i
        for i, st in enumerate(states)
        if st is not None and st[0] in M1.T and st[1] in M2.T
    )
    fsa = FSA(alpha, tuple(tuple(r) for r in rows), 0, accepting)
    return PPA(M1, M2, ext, fsa, states)


def ppa_branch(D: PPA, d: ParityElement) -> FSA:
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


def _language_by_state(F: FPA, R: int):
    """All words of length <= R grouped by their end state, L-words only."""
    groups: dict[int, list[Word]] = {}
    frontier = [("", F.product.initial)]
    for _ in range(R + 1):
        nxt = []
        for w, s in frontier:
            if s in F.product.accepting:
                groups.setdefault(s, []).append(w)
            if len(w) < R:
                for x in F.product.alphabet.letters:
                    nxt.append((w + x, F.product.step(s, x)))
        frontier = nxt
    return groups


def check_fpa_key_property(F: FPA, R: int, R_v: Optional[int] = None) -> CheckReport:
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
                if cur in F.product.accepting:
                    compatible.append(v)
                if len(v) < R_v:
                    for x in F.product.alphabet.letters:
                        nxt.append((v + x, F.product.step(cur, x)))
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


def check_ppa_key_property(D: PPA, R: int = 6) -> CheckReport:
    """Pa(sigma_rho(w, w^-1)) equals the accumulator branch of every
    accepted w with |w| <= R; L-prefixes never reach the sink.

    sigma_rho(w, w^-1) is read from the cocycle tables over the radius-R
    ball, and evaluated by the string route where they read None."""
    ext = D.ext
    kernel = ext.kernel
    alpha = D.fsa.alphabet
    ball = build_ball(ext.base, R)
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
                        else ParityElement(kernel, v[: kernel.rank], v[kernel.rank :])
                    )
                    if direct != d:
                        counterexamples.append(("branch", w, direct, d))
            if len(w) < R:
                for x in alpha.letters:
                    nxt.append((w + x, D.fsa.step(s, x), ball.edges[g][x]))
        frontier = nxt
    return CheckReport(R, tuple(counterexamples))
