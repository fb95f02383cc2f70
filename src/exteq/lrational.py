"""Synthesis and validation of the pipeline's input automata.

The pipeline consumes a regular language L of quasi-geodesic words and,
per letter x and cocycle value a, predictor automata that recognize the
L-words w with sigma(w, x) = a (three kinds: for sigma_q(w,x), for
sigma_rho(w,x), and a reversed kind for sigma_rho(x, w^-1) consumed by
the parity construction).  Every automaton reads the plain word w.

Synthesis is conjectural by design: states are finite signatures (local
windows of normal forms, or longest relator-fragment matches) that are
hypothesized to determine membership and the predicted value, which is
evaluated by the string route (sigma_q / sigma_rho) at each state's
representative word.  Two signature graphs are synthesized: the left
graph, whose live states are L and which carries the q-left and
rho-left values, and the right graph, which carries the reversed
values.  The three families on them are the predicting automata: the
q-left family is the FPA, the other two the LFPA and RFPA.  Every
family is then validated against all words up to the validation radius
and rejected on any mismatch; the validated radius is recorded on it.

Validation is one breadth-first walk over the word tree that serves the
three families together (`build_automata`, the only entry point).  Each
word's membership in L is decided once, from the ball indices of its
suffixes, so a child only tests its new suffixes against integer
quasi-geodesic bounds; the walk carries every family's state as one
joint state.  It skips a subtree only where no word can disagree: the
root is not quasi-geodesic (so no extension is) and every family sits
in a state that reaches no live state.  On every word of L each
family's predicted row, one value per letter, is compared with the row
of values read off the Cayley ball's edge labels (BallCocycles), the
relator logs its construction already computed, which hold a row for
every element; only a row that differs is checked letter by letter.
Every check is thus a function of the family's state and the word's
element, so words of one length with the same joint state and suffix
elements are one node of the walk, judged and expanded once; the
longest words are judged as they are generated and never stored.  A
walk that finds a mismatch is walked again word by word, so each
family's mismatches, and their order, are those of an exhaustive walk
over all words for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .abelian import FGAElement
from .errors import (
    BallTooSmall,
    NotAcceptingState,
    ResourceBound,
    SynthesisInconsistent,
    ValueSetUnstable,
)
from .automata import FSA, coaccessible, explore
from .extension import BallCocycles, CentralExtension, sigma_q, sigma_rho
from .words import (
    CayleyBall,
    Presentation,
    Word,
    normal_form,
    qg_min_distances,
)

Q_LEFT = "q-left"
RHO_LEFT = "rho-left"
RHO_RIGHT_REVERSED = "rho-right-reversed"

KINDS = (Q_LEFT, RHO_LEFT, RHO_RIGHT_REVERSED)

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

    def rsig_initial(self):
        return ""

    def rsig_step(self, sig, z: str):
        nxt = self._nf(z + sig)
        return nxt[: self.window] if self.window else ""


class _MatchScheme:
    """Signature machinery for L = geodesic words of a presentation whose
    geodesics are conjectured to be exactly the freely reduced words
    avoiding over-half relator fragments (dense small cancellation).

    The membership/value signature is the longest suffix of the word that
    is a prefix of a cyclic rotation of a (possibly inverted) relator;
    the reversed value signature mirrors this at the front.
    """

    def __init__(self, p: Presentation):
        self.p = p
        self.nu = 0
        prefixes = set()
        suffixes = set()
        forbidden_pref = set()
        forbidden_suf = set()
        for r in p.relators:
            half = len(r) // 2
            for base in (r, p.alphabet.inverse_word(r)):
                for j in range(len(base)):
                    c = base[j:] + base[:j]
                    for cut in range(1, len(c) + 1):
                        prefixes.add(c[:cut])
                        suffixes.add(c[-cut:])
                        if cut > half:
                            forbidden_pref.add(c[:cut])
                            forbidden_suf.add(c[-cut:])
        self._prefixes = prefixes
        self._suffixes = suffixes
        # a match is fatal if any of its suffixes (resp. prefixes) is an
        # over-half fragment
        self._bad_pref = {
            u
            for u in prefixes
            if any(u[i:] in forbidden_pref for i in range(len(u)))
        }
        self._bad_suf = {
            u
            for u in suffixes
            if any(u[: len(u) - i] in forbidden_suf for i in range(len(u)))
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

    def rsig_initial(self):
        return ""

    def rsig_step(self, sig, z: str):
        cand = z + sig
        while cand and cand not in self._suffixes:
            cand = cand[:-1]
        return cand


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
        object.__setattr__(self, "_scheme_cache", [])

    def scheme(self):
        if not self._scheme_cache:
            if self.window is None:
                self._scheme_cache.append(_MatchScheme(self.presentation))
            else:
                self._scheme_cache.append(
                    _TailScheme(self.presentation, self.nu, self.window)
                )
        return self._scheme_cache[0]


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
    values[x][s] = a.  Every kind's graph reads the plain word w; the
    reversed kind's values are sigma_rho(x, w^-1).

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


def _synthesize_graph(lspec: LanguageSpec, right: bool):
    """BFS over signatures; returns (FSA with live accepting, reps), where
    reps[s] is the first word found to reach s.

    A state pairs the membership signature with a value signature, and a
    word whose membership signature is dead steps to the sink.  The left
    graph (right=False) pairs it with the forward value signature: its
    live states are L, and it carries the q-left and rho-left values.  The
    right graph pairs it with the value signature of w^-1, its letters
    inverted and prepended, and carries the reversed values.  Both read
    the plain word w.

    States are numbered in breadth-first discovery order from the
    initial state, letters in alphabet order, and the dead sink (None)
    where the search first reaches it (`automata.explore`).  A family's
    graph is therefore, state for state, the reachable product of its
    (x, a) predictors, and the left graph's numbering, as F's, fixes the
    order of the Theta stream and the states s that certificates record.
    """
    scheme = lspec.scheme()
    alpha = lspec.presentation.alphabet
    lstep = scheme.lsig_step
    if right:
        inverse, rstep = alpha.inverse, scheme.rsig_step
        start = (scheme.lsig_initial(), scheme.rsig_initial())

        def vstep(sig, x):
            return rstep(sig, inverse[x])
    else:
        vstep = scheme.vsig_step
        start = (scheme.lsig_initial(), scheme.vsig_initial())

    def step(state, x):
        l2 = lstep(state[0], x)
        return None if l2 == _DEAD else (l2, vstep(state[1], x))

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
    """The three predictor families, validated in one walk over every
    word of length <= R_validate.  The walk reads ext's cocycle tables
    `cocycles`, whose ball must reach R_validate.

    The q-left and rho-left families share the left graph, whose live
    states are L; the reversed family has the right graph.  A left graph
    beyond the cap raises ResourceBound at once.  Otherwise the first
    failure raises, each family in KINDS order: the q-left family's
    membership mismatch is L's.  A family fails by a value its synthesis
    never observed (ValueSetUnstable), another mismatch
    (SynthesisInconsistent) or, for the reversed family, the cap its
    right graph exceeded (ResourceBound).
    """
    if lspec.presentation != ext.base:
        raise ValueError("language spec belongs to a different presentation")
    left = _synthesize_graph(lspec, right=False)
    fams = {kind: _family(ext, kind, lspec, *left) for kind in (Q_LEFT, RHO_LEFT)}
    # a right graph beyond the cap fails in its KINDS place, after the
    # left families
    right_failure = None
    try:
        right = _synthesize_graph(lspec, right=True)
        fams[RHO_RIGHT_REVERSED] = _family(ext, RHO_RIGHT_REVERSED, lspec, *right)
    except ResourceBound as exc:
        right_failure = exc
    machines = [_family_machine(f, cocycles) for f in fams.values()]
    walk = _walk(lspec, R_validate, cocycles.ball, machines)
    for fam, report in zip(fams.values(), walk):
        _raise_for_family(fam, report)
    if right_failure is not None:
        raise right_failure
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


def _family(
    ext: CentralExtension, kind: str, lspec: LanguageSpec, graph: FSA, reps: tuple
) -> PredictorFamily:
    """The family on a synthesized graph, with each live state's values
    evaluated by the string route at its representative word; not yet
    validated."""
    alpha = ext.base.alphabet
    values: dict[str, list[Optional[FGAElement]]] = {
        x: [None] * graph.n_states for x in alpha.letters
    }
    for s in graph.accepting:
        rep = reps[s]
        for x in alpha.letters:
            values[x][s] = _direct_value(ext, kind, rep, x)
    value_sets = {
        x: tuple(
            sorted(
                {values[x][s] for s in graph.accepting},
                key=lambda a: a.coords(),
            )
        )
        for x in alpha.letters
    }
    return PredictorFamily(
        kind=kind,
        ext=ext,
        lspec=lspec,
        graph=graph,
        values={x: tuple(v) for x, v in values.items()},
        value_sets=value_sets,
    )


def _walk(lspec: LanguageSpec, R: int, ball: CayleyBall, machines: list) -> list:
    """The validation walk over all words of length <= R, breadth-first.

    Each machine is (graph, check): an automaton whose live (accepting)
    states should be exactly the words of L, and check(w, state, element
    index), which returns the mismatches of a word that is in L and live
    and depends on w only through its element.

    Each word w is judged once for all machines: w is in L iff every
    suffix of every prefix passes the quasi-geodesic bound, so a node
    carries the ball indices of its suffixes and a child tests only its
    new suffixes, with integer thresholds.  The machines' states are
    carried along as one joint state.  A subtree is skipped only when
    its root is not in L, so neither is any extension, and no machine's
    state can reach a live state, so no extension is accepted either.

    Words of one length with the same joint state and the same suffix
    elements (or both outside L) are one node: they have the same
    membership, the same check results and pairwise such children, so
    the walk keeps the first of them and finds a mismatch iff the walk
    over every word does.  The words of length R are judged as they are
    generated and kept in no frontier.  A walk that finds a mismatch is
    walked again word by word, so that its report names every word.

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
    need = qg_min_distances(lspec.nu, R)
    dist = ball.distances
    edges = ball.edges
    rows = [graph.transitions for graph, _ in machines]
    dooms = [
        frozenset(range(graph.n_states)) - coaccessible(graph) for graph, _ in machines
    ]
    # joint states, interned, each with whether every machine is doomed
    # there and its children, listed on first expansion
    joint: dict = {}
    states, doomed, kids = [], [], []

    def intern(st):
        p = joint.get(st)
        if p is None:
            p = joint[st] = len(states)
            states.append(st)
            doomed.append(all(s in d for s, d in zip(st, dooms)))
            kids.append(None)
        return p

    def judge(w, p, sfx, out):
        in_L = sfx is not None
        for k, s in enumerate(states[p]):
            graph, check = machines[k]
            got = s in graph.accepting
            if in_L != got:
                out[k].append(("membership", w, in_L, got))
            elif got:
                out[k].extend(check(w, s, sfx[0]))

    def levels(merge):
        out: list = [[] for _ in machines]
        last: list = [[] for _ in machines]
        # ((joint state, ball indices of w[i:] for i = 0..|w|), w) with
        # None for the indices once w has left L; merged, a dict from
        # the pair to its first word
        root = ((intern(tuple(g.initial for g, _ in machines)), (0,)), "")
        frontier = dict([root]) if merge else [root]
        for depth in range(R + 1):
            nxt = {} if merge else []
            for (p, sfx), w in frontier.items() if merge else frontier:
                judge(w, p, sfx, out)
                if depth == R or (sfx is None and doomed[p]):
                    continue
                ks = kids[p]
                if ks is None:
                    ks = kids[p] = [
                        intern(tuple(rw[s][i] for rw, s in zip(rows, states[p])))
                        for i in range(len(letters))
                    ]
                for i, x in enumerate(letters):
                    child = None
                    if sfx is not None:
                        child = (*[edges[j][i] for j in sfx], 0)
                        for k, j in enumerate(child[:-1]):
                            if dist[j] < need[depth + 1 - k]:
                                child = None
                                break
                    if depth + 1 == R:
                        judge(w + x, ks[i], child, last)
                    elif merge:
                        nxt.setdefault((ks[i], child), w + x)
                    else:
                        nxt.append(((ks[i], child), w + x))
            frontier = nxt
        return [a + b for a, b in zip(out, last)]

    out = levels(merge=True)
    if any(out):
        out = levels(merge=False)
    return [ValidationReport(R, tuple(m)) for m in out]


def _direct_value(ext: CentralExtension, kind: str, w: Word, x: str):
    """Ground-truth cocycle value for the word that reached a state."""
    if kind == Q_LEFT:
        return sigma_q(ext, w, x)
    if kind == RHO_LEFT:
        return sigma_rho(ext, w, x)
    return sigma_rho(ext, x, ext.base.alphabet.inverse_word(w))


def _family_machine(fam: PredictorFamily, cocycles: BallCocycles) -> tuple:
    """The family as a machine of _walk, its check comparing predicted
    and expected values for every letter.

    A word's predicted row (one value per letter, read at its state) is
    compared whole with the expected row the tables hold at its ball
    element; only when they differ are the letters checked one by one.
    A mismatch names the word w; its values depend only on s and g.
    """
    kind, ext = fam.kind, fam.ext
    letters = ext.base.alphabet.letters
    group = ext.pushout_kernel if kind == Q_LEFT else ext.kernel
    if kind == Q_LEFT:
        expected_row = cocycles.q_left_row
    elif kind == RHO_LEFT:
        expected_row = cocycles.rho_left.__getitem__
    else:
        inverse, rho_right = cocycles.inverse, cocycles.rho_right

        def expected_row(g):
            return tuple([col[inverse[g]] for col in rho_right])
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

    return (fam.graph, check)
