"""Synthesis and validation of the pipeline's input automata.

The pipeline consumes a regular language L of quasi-geodesic words and,
per letter x and cocycle value a, predictor automata that recognize the
L-words w with sigma(w, x) = a (three kinds: for sigma_q(w,x), for
sigma_rho(w,x), and a reversed kind for sigma_rho(x, w^-1) consumed by
the parity construction).  Every automaton reads the plain word w.

Synthesis is conjectural by design: states are finite signatures (local
windows of normal forms, or longest relator-fragment matches) that are
hypothesized to determine membership and the predicted value, read off
the cocycle tables (BallCocycles) at each state's representative word;
the tables are checked against the string route (sigma_q / sigma_rho)
once per class of those words.  One signature graph is synthesized, on
(membership, forward value) signatures: its live states are L, and it
carries all three families' values.  The families are the predicting
automata: the q-left family is the FPA, the other two the LFPA and
RFPA.  Every family is then validated against all words up to the
validation radius and rejected on any mismatch; the validated radius is
recorded on it.

Validation is one breadth-first walk over the word tree that serves the
three families together (`build_automata`, the only entry point).  A
subword's deficiency |u| - d(u) is at most its word's, so a word is in
L iff its own distance is at least its length minus nu: the walk
carries each word's ball element, with the families' states as one
joint state, and a child costs one edge lookup and one comparison.  It
skips a subtree only where no word can disagree: the root is not in L
and every family sits in a state that reaches no live state.  On every
word of L each family's predicted row, one value per letter, is
compared with the expected row read off the Cayley ball's edge labels
(BallCocycles), a function of the element's class in the tables.  So a
first pass that keeps no words judges each distinct (joint state,
class) once and stops at the first mismatch.  Only after one is the
tree walked again word by word, so each family's mismatches, and their
order, are those of an exhaustive walk over all words for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional

from .abelian import FGAElement
from .errors import (
    BallTooSmall,
    NotAcceptingState,
    SynthesisInconsistent,
    ValueSetUnstable,
)
from .automata import FSA, coaccessible, explore
from .extension import BallCocycles, CentralExtension, sigma_q, sigma_rho
from .words import CayleyBall, Presentation, Word, normal_form

Q_LEFT = "q-left"
RHO_LEFT = "rho-left"
RHO_RIGHT_REVERSED = "rho-right-reversed"

KINDS = (Q_LEFT, RHO_LEFT, RHO_RIGHT_REVERSED)

# each kind's string-route value at w against x, sigma_* looked up at the call
_STRING_ROUTE = {
    Q_LEFT: lambda ext, w, x: sigma_q(ext, w, x),
    RHO_LEFT: lambda ext, w, x: sigma_rho(ext, w, x),
    RHO_RIGHT_REVERSED: lambda ext, w, x: sigma_rho(ext, x, ext.inv_word(w)),
}

_DEAD = "!"


class _TailScheme:
    """Signature machinery for L = words whose every suffix s satisfies
    |s| - d(s) <= nu, with normal-form windows of a fixed width as the
    locality conjecture.

    The membership signature keeps, per class of suffixes sharing a
    window, the worst deficiency; the value signatures are the trailing
    (resp. leading) window of the running normal form.  When the window
    is at least the group's diameter the proxies are exact.
    """

    def __init__(self, p: Presentation, nu: int, window: int):
        self.p = p
        self.nu = nu
        self.window = window

    def _nf(self, w: Word) -> Word:
        return normal_form(self.p, w)

    def lsig_initial(self):
        return frozenset()

    def lsig_step(self, sig, x: str):
        if sig == _DEAD:
            return _DEAD
        out = {}
        # sorted: which normal forms get computed before an early exit
        # must not depend on the string hash seed
        for d, proxy in sorted(sig):
            nxt = self._nf(proxy + x)
            delta = len(nxt) - len(proxy)
            d2 = d + 1 - delta
            if d2 > self.nu:
                return _DEAD
            proxy2 = nxt[-self.window :] if self.window else ""
            if out.get(proxy2, -1) < d2:
                out[proxy2] = d2
        nx = self._nf(x)
        d_new = 1 - len(nx)
        if d_new > self.nu:
            return _DEAD
        pr_new = nx[-self.window :] if self.window else ""
        if out.get(pr_new, -1) < d_new:
            out[pr_new] = d_new
        return frozenset((d, pr) for pr, d in out.items())

    def vsig_initial(self):
        return ""

    def vsig_step(self, sig, x: str):
        nxt = self._nf(sig + x)
        return nxt[-self.window :] if self.window else ""


class _MatchScheme:
    """Signature machinery for L = geodesic words of a presentation whose
    geodesics are conjectured to be exactly the freely reduced words
    avoiding over-half relator fragments (dense small cancellation).

    The membership/value signature is the longest suffix of the word that
    is a prefix of a cyclic rotation of a (possibly inverted) relator.
    """

    def __init__(self, p: Presentation):
        self.p = p
        self.nu = 0
        prefixes = set()
        forbidden = set()
        for r in p.relators:
            half = len(r) // 2
            for base in (r, p.alphabet.inverse_word(r)):
                for j in range(len(base)):
                    c = base[j:] + base[:j]
                    for cut in range(1, len(c) + 1):
                        prefixes.add(c[:cut])
                        if cut > half:
                            forbidden.add(c[:cut])
        self._prefixes = prefixes
        # a match is fatal if any of its suffixes is an over-half fragment
        self._bad_pref = {
            u for u in prefixes if any(u[i:] in forbidden for i in range(len(u)))
        }

    def lsig_initial(self):
        return ""

    def lsig_step(self, sig, x: str):
        if sig == _DEAD:
            return _DEAD
        if sig and x == self.p.alphabet.inverse[sig[-1]]:
            return _DEAD
        cand = sig + x
        while cand and cand not in self._prefixes:
            cand = cand[1:]
        if not cand or cand in self._bad_pref:
            return _DEAD
        return cand

    # the value signature is the membership signature, so pairing them
    # refines nothing
    vsig_initial = lsig_initial
    vsig_step = lsig_step


@dataclass(frozen=True)
class LanguageSpec:
    """Choice of the quasi-geodesic language L and its locality signature.

    window=None selects the relator-fragment signature (nu must be 0);
    otherwise the normal-form-window signature of the given width is used.
    """

    presentation: Presentation
    nu: int = 0
    window: Optional[int] = 2

    def __post_init__(self):
        if self.window is None and self.nu != 0:
            raise ValueError("relator-fragment signatures require nu = 0")
        if self.nu < 0 or (self.window is not None and self.window < 1):
            raise ValueError("need nu >= 0 and window >= 1")

    @cached_property
    def scheme(self):
        if self.window is None:
            return _MatchScheme(self.presentation)
        return _TailScheme(self.presentation, self.nu, self.window)

    @cached_property
    def graph(self) -> tuple:
        return _synthesize_graph(self)


@dataclass(frozen=True)
class ValidationReport:
    radius: int
    mismatches: tuple

    @property
    def passed(self) -> bool:
        return not self.mismatches


@dataclass
class PredictorFamily:
    """A family of predictor automata sharing one transition graph.

    graph's accepting set marks the live (L-member) states; values[x][s]
    is the predicted cocycle value at live state s against letter x, so
    the (x, a) predictor is the graph accepting the live s with
    values[x][s] = a.  All three kinds share one graph, which reads the
    plain word w; the reversed kind's values are sigma_rho(x, w^-1).

    All predictors of a family differ only in their accepting sets, so
    their product, the paper's predicting automaton, is the graph itself:
    the q-left family is the FPA F, with T its live states and a(s, x)
    its values, and the rho-left and reversed families are the LFPA and
    RFPA.  `memo` holds the constraint automata the reduction reads off
    F: the branches M(s), the accumulator graphs keyed by s', L(b) and
    L(e).  Each depends only on its key, so it is built on first use and
    shared, immutable, by every index tuple and solve of the pipeline.
    """

    kind: str
    ext: CentralExtension
    lspec: LanguageSpec
    graph: FSA
    values: dict[str, tuple[Optional[FGAElement], ...]]
    value_sets: dict[str, tuple[FGAElement, ...]]
    validated_radius: int = 0
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def live(self):
        return self.graph.accepting

    def a_of(self, s: int, x: str) -> FGAElement:
        """The predicted value a(s, x), for s in T."""
        if s not in self.graph.accepting:
            raise NotAcceptingState(f"state {s} not in T")
        return self.values[x][s]


def _synthesize_graph(lspec: LanguageSpec):
    """BFS over signatures; returns (FSA with live accepting, reps), where
    reps[s] is the first word found to reach s.

    A state pairs the membership signature with the forward value
    signature, and a word whose membership signature is dead steps to
    the sink.  The live states are L, and the graph carries all three
    families' values.

    States are numbered in breadth-first discovery order from the
    initial state, letters in alphabet order, and the dead sink (None)
    where the search first reaches it (`automata.explore`).  A family's
    graph is therefore, state for state, the reachable product of its
    (x, a) predictors, and the numbering, as F's, fixes the order of the
    Theta stream and the states s that certificates record.
    """
    scheme = lspec.scheme
    lstep, vstep = scheme.lsig_step, scheme.vsig_step

    def step(state, x):
        l2 = lstep(state[0], x)
        return None if l2 == _DEAD else (l2, vstep(state[1], x))

    alpha = lspec.presentation.alphabet
    start = (scheme.lsig_initial(), scheme.vsig_initial())
    states, rows = explore(alpha, start, step, what="signature space")
    # the first word to reach each state: reps[i] + x where i first steps to it
    reps: list = [""] + [None] * (len(states) - 1)
    for i, row in enumerate(rows):
        for x, j in zip(alpha.letters, row):
            if reps[j] is None:
                reps[j] = reps[i] + x
    live = frozenset(i for i, st in enumerate(states) if st is not None)
    return FSA(alpha, rows, 0, live), tuple(reps)


def build_automata(
    ext: CentralExtension,
    lspec: LanguageSpec,
    R_validate: int,
    cocycles: BallCocycles,
) -> dict[str, PredictorFamily]:
    """The three predictor families on the one signature graph, whose
    live states are L, validated in one walk over every word of length
    <= R_validate, which never judges a state whose representative is
    longer.  Values are read from ext's cocycle tables `cocycles`, whose
    ball must reach R_validate and every live state's representative
    (else BallTooSmall, naming it).

    A graph beyond the cap raises ResourceBound, tables that differ from
    the string route SynthesisInconsistent.  Otherwise the first failure
    raises, each family in KINDS order: the q-left family's membership
    mismatch is L's.  A family fails by a value its synthesis never
    observed (ValueSetUnstable) or another mismatch (SynthesisInconsistent).
    """
    if lspec.presentation != ext.base:
        raise ValueError("language spec belongs to a different presentation")
    graph, reps = lspec.graph
    at = _rep_elements(ext, graph, reps, cocycles)
    fams = {kind: _family(ext, kind, lspec, graph, at, cocycles) for kind in KINDS}
    machines = [_family_machine(f, cocycles) for f in fams.values()]
    walk = _walk(lspec, R_validate, cocycles.ball, machines)
    for fam, report in zip(fams.values(), walk):
        _raise_for_family(fam, report)
    return fams


def _raise_for_family(fam: PredictorFamily, report: ValidationReport) -> None:
    """Raise on a failed report, else record the validated radius."""
    if not report.passed:
        first = report.mismatches[0]
        if first[0] == "value":
            _, w, x, expected, got = first
            if expected not in fam.value_sets[x]:
                raise ValueSetUnstable(
                    f"value {expected} of {w!r} against {x!r} "
                    "not observed during synthesis",
                )
        raise SynthesisInconsistent(
            f"{fam.kind} family mismatch at radius {report.radius}: {first}",
            report,
        )
    fam.validated_radius = report.radius


def _rep_elements(ext: CentralExtension, graph: FSA, reps: tuple,
                  cocycles: BallCocycles) -> list:
    """at[s], the ball element of live state s's representative, else None.
    The first representative of each class has every kind's table row
    compared with the string route."""
    edges, R, alpha = cocycles.ball.edges, cocycles.ball.radius, ext.base.alphabet
    at, first = [None] * graph.n_states, {}  # first: each class's first state
    for s in sorted(graph.accepting):
        g, w = 0, reps[s]
        for x in w:
            g = edges[g][alpha.position[x]]
            if g is None:
                raise BallTooSmall(f"representative {w!r} leaves the ball of radius {R}")
        at[s] = g
        if first.setdefault(cocycles.classes[g], s) == s:
            for kind in KINDS:
                for x, e in zip(alpha.letters, _expected_row(kind, cocycles)(g)):
                    if _STRING_ROUTE[kind](ext, w, x).coords() != e:
                        raise SynthesisInconsistent(f"{kind} table differs from the "
                                                    f"string route at {w!r} against {x!r}")
    return at


def _family(ext: CentralExtension, kind: str, lspec: LanguageSpec, graph: FSA,
            at: list, cocycles: BallCocycles) -> PredictorFamily:
    """The family on a synthesized graph, live state s's values the tables'
    row at at[s], one FGAElement per distinct value; not yet validated."""
    group = ext.pushout_kernel if kind == Q_LEFT else ext.kernel
    row_at, r = _expected_row(kind, cocycles), group.rank
    rows = [(None,) * len(graph.alphabet.letters) if g is None else row_at(g) for g in at]
    made = {t: group.element(t[:r], t[r:]) for t in set(chain(*rows)) - {None}}
    cols = dict(zip(graph.alphabet.letters, zip(*rows)))
    return PredictorFamily(
        kind, ext, lspec, graph, {x: tuple(map(made.get, c)) for x, c in cols.items()},
        {x: tuple(map(made.get, sorted(set(c) - {None}))) for x, c in cols.items()})


def _walk(lspec: LanguageSpec, R: int, ball: CayleyBall, machines: list) -> list:
    """The validation walk over all words of length <= R, breadth-first.

    Each machine is (graph, check, classes): an automaton whose live
    (accepting) states should be exactly the words of L; check(w, state,
    element index), which returns the mismatches of a word that is in L
    and live, and depends on w only through its element g and on g only
    through classes[g]; and that list, one list shared by all machines.

    A word w is in L iff d(w) >= |w| - nu: for v = p u q, d(u) >= d(v)
    - |p| - |q|, so a subword's deficiency |u| - d(u) is at most v's.  d
    is read off the ball, assuming its normal forms decide the word
    problem.  So a node is (joint state of the machines, element), the
    element None once the word has left L.  A subtree is skipped only
    when its root is not in L and no machine's state can reach a live
    state: then no extension is in L or accepted.

    The first pass keeps no words: it expands each distinct node of a
    length once, judges each distinct (joint state, class) once, the
    class None outside L, and stops at the first mismatch.  Alike nodes
    have alike judgements and children, so it finds a mismatch iff some
    word has one.  The longest words are judged as they are generated
    and never stored.  Only after a mismatch does a second pass walk
    word by word, so that the reports name every word.

    Returns one report per machine, listing ("membership", w, in_L,
    got_live) for a membership mismatch, plus whatever check returns, in
    the order of a full breadth-first walk.  A machine walked with others
    reports what it reports alone: below a state that reaches no live
    state it meets only words that are neither in L nor live.
    """
    if ball.radius < R:
        n = ball.radius + 1
        raise BallTooSmall(
            f"word of length {n} needs a ball of radius >= {n}, have {ball.radius}"
        )
    letters = lspec.presentation.alphabet.letters
    dist = ball.distances
    edges = ball.edges
    rows = [graph.transitions for graph, *_ in machines]
    dooms = [
        frozenset(range(graph.n_states)) - coaccessible(graph) for graph, *_ in machines
    ]
    (classes,) = {id(c): c for *_, c in machines}.values()  # a shared list
    # joint states, interned, each with whether every machine is doomed
    # there and its children, listed on first expansion
    joint: dict = {}
    states, doomed, kids = [], [], {}

    def intern(st):
        p = joint.get(st)
        if p is None:
            p = joint[st] = len(states)
            states.append(st)
            doomed.append(all(s in d for s, d in zip(st, dooms)))
        return p

    def judge(w, p, g, out):
        in_L = g is not None
        for k, s in enumerate(states[p]):
            graph, check, _ = machines[k]
            got = s in graph.accepting
            if in_L != got:
                out[k].append(("membership", w, in_L, got))
            elif got:
                out[k].extend(check(w, s, g))

    def tree(spell):
        """(w, joint state, element) for each node, breadth-first; w is
        None unless spelled, and unspelled nodes below length R are
        listed once per length."""
        root = intern(tuple(graph.initial for graph, *_ in machines))
        frontier = [("" if spell else None, root, 0)]
        for depth in range(R + 1):
            yield from frontier
            nxt = []
            need = depth + 1 - lspec.nu
            for w, p, g in frontier if depth < R else ():
                if g is None and doomed[p]:
                    continue
                ks = kids.get(p)
                if ks is None:
                    ks = kids[p] = [
                        intern(tuple(rw[s][i] for rw, s in zip(rows, states[p])))
                        for i in range(len(letters))
                    ]
                for i, q in enumerate(ks):
                    h = None if g is None else edges[g][i]
                    if h is not None and dist[h] < need:
                        h = None
                    child = (w + letters[i] if spell else None, q, h)
                    if depth + 1 == R:
                        yield child
                    else:
                        nxt.append(child)
            frontier = nxt if spell else list(dict.fromkeys(nxt))

    out: list = [[] for _ in machines]
    judged = set()
    for _, p, g in tree(spell=False):
        key = (p, None if g is None else classes[g])
        if key not in judged:
            judged.add(key)
            judge(None, p, g, out)
            if any(out):
                break
    if any(out):
        out = [[] for _ in machines]
        for w, p, g in tree(spell=True):
            judge(w, p, g, out)
    return [ValidationReport(R, tuple(m)) for m in out]


def _family_machine(fam: PredictorFamily, cocycles: BallCocycles) -> tuple:
    """The family as a machine of _walk, its check comparing predicted
    and expected values for every letter.

    A word's predicted row (one value per letter, read at its state) is
    compared whole with the expected row the tables hold at its ball
    element; only when they differ are the letters checked one by one.
    A mismatch names the word w; its values depend only on s and on g's
    class in the tables, which the machine carries.
    """
    kind, ext = fam.kind, fam.ext
    letters = ext.base.alphabet.letters
    group = ext.pushout_kernel if kind == Q_LEFT else ext.kernel
    expected_row = _expected_row(kind, cocycles)
    # predicted values as coordinate tuples; a value in the wrong group
    # never equals an expected one
    predicted = [
        tuple(v.coords() if v is not None and v.group == group else v for v in row)
        for row in zip(*(fam.values[x] for x in letters))
    ]

    def check(w, s, g):
        exp = expected_row(g)
        if exp == predicted[s]:
            return ()
        return [
            ("value", w, x, group.element(e[: group.rank], e[group.rank :]),
             fam.values[x][s])
            for x, e, got in zip(letters, exp, predicted[s])
            if e != got
        ]

    return (fam.graph, check, cocycles.classes)


def _expected_row(kind: str, cocycles: BallCocycles):
    """g -> the tables' row of kind's values at element g, by letter."""
    if kind == Q_LEFT:
        return cocycles.q_left_row
    if kind == RHO_LEFT:
        return cocycles.rho_left.__getitem__
    inverse, rho_right = cocycles.inverse, cocycles.rho_right
    return lambda g: rho_right[inverse[g]]
