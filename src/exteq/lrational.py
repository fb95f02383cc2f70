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
representative word.  Every built automaton is then validated against
all words up to the validation radius and rejected on any mismatch; the
validated radius is recorded on the artifact.

Validation is one breadth-first walk over the word tree that serves L
and the three families together (`build_automata`, the only entry
point).  Each word's membership in L is decided once, from the ball
indices of its suffixes, so a child only tests its new suffixes against
integer quasi-geodesic bounds; the walk carries every automaton's
state as one joint state.  It skips a subtree only where no word can
disagree: the root is not quasi-geodesic (so no extension is) and every
automaton sits in a state that reaches no live state.  On every word of L each family's predicted row, one value per
letter, is compared with the row of values read off the Cayley ball's
edge labels (BallCocycles), the relator logs its construction already
computed; only a row that differs, or holds an element those tables
cannot reach, is checked letter by letter, by the string route where
the tables read nothing.  Each automaton's mismatches, and their order,
are those of an exhaustive walk over all words for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abelian import FGAElement
from .errors import (
    BallTooSmall,
    ResourceBound,
    SynthesisInconsistent,
    ValueSetUnstable,
)
from .automata import FSA, coaccessible, explore, restrict_accepting
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

    # the membership signature doubles as the forward value signature
    def vsig_initial(self):
        return ""

    def vsig_step(self, sig, x: str):
        cand = sig + x
        while cand and cand not in self._prefixes:
            cand = cand[1:]
        return cand

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
    """

    kind: str
    ext: CentralExtension
    lspec: LanguageSpec
    graph: FSA
    values: dict[str, tuple[Optional[FGAElement], ...]]
    value_sets: dict[str, tuple[FGAElement, ...]]
    validated_radius: int = 0

    @property
    def live(self):
        return self.graph.accepting


def _synthesize_graph(lspec: LanguageSpec, kind: Optional[str], cap: Optional[int]):
    """BFS over signatures; returns (FSA with live accepting, reps), where
    reps[s] is the first word found to reach s.

    States are numbered in breadth-first discovery order from the
    initial state, letters in alphabet order, and the dead sink (None)
    where the search first reaches it (`automata.explore`).  A family's
    graph is therefore, state for state, the reachable product of its
    (x, a) predictors, and as the FPA its numbering fixes the order of
    the Theta stream and the states s that certificates record.

    The membership signature reads w; the value signature of the
    reversed kind reads w^-1, its letters inverted and prepended.
    """
    scheme = lspec.scheme()
    alpha = lspec.presentation.alphabet
    lstep, start = scheme.lsig_step, (scheme.lsig_initial(),)
    if kind == RHO_RIGHT_REVERSED:
        inverse, rstep = alpha.inverse, scheme.rsig_step
        start += (scheme.rsig_initial(),)

        def vstep(sig, x):
            return rstep(sig, inverse[x])
    elif kind is not None and not isinstance(scheme, _MatchScheme):
        vstep = scheme.vsig_step
        start += (scheme.vsig_initial(),)

    def step(state, x):
        l2 = lstep(state[0], x)
        if l2 == _DEAD:
            return None
        return (l2,) if len(state) == 1 else (l2, vstep(state[1], x))

    states, rows = explore(alpha, start, step, cap, what="signature space")
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
    ball: CayleyBall,
    cap: Optional[int] = None,
) -> tuple[FSA, dict[str, PredictorFamily]]:
    """L and the three predictor families, validated in one walk over
    every word of length <= R_validate, which the ball must reach.

    Raises on the first failure in this order: L's membership mismatch,
    then each family in KINDS order, where a family fails by the cap
    its synthesis exceeded (ResourceBound), a value its synthesis never
    observed (ValueSetUnstable) or another mismatch (SynthesisInconsistent).
    """
    if lspec.presentation != ext.base:
        raise ValueError("language spec belongs to a different presentation")
    L, _ = _synthesize_graph(lspec, None, cap)
    # a family whose synthesis exceeds a cap fails in its KINDS place,
    # after L and the families before it
    fams, failures = {}, {}
    for kind in KINDS:
        try:
            fams[kind] = _synthesize_family(ext, kind, lspec, cap)
        except ResourceBound as exc:
            failures[kind] = exc
    cocycles = BallCocycles(ext, ball)
    machines = [(L, L.accepting, (), None)]
    machines += [_family_machine(f, ext, cocycles) for f in fams.values()]
    reports = _walk(lspec, R_validate, ball, machines)
    _raise_for_L(reports[0])
    report_of = dict(zip(fams, reports[1:]))
    for kind in KINDS:
        if kind in failures:
            raise failures[kind]
        _raise_for_family(fams[kind], report_of[kind])
    return L, fams


def _raise_for_L(report: ValidationReport) -> None:
    if not report.passed:
        raise SynthesisInconsistent(
            f"membership mismatch at radius {report.radius}: "
            f"{report.mismatches[0]}",
            report,
        )


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


def _synthesize_family(
    ext: CentralExtension, kind: str, lspec: LanguageSpec, cap: Optional[int]
) -> PredictorFamily:
    """The family's graph, with each live state's values evaluated by the
    string route at its representative word; not yet validated."""
    graph, reps = _synthesize_graph(lspec, kind, cap)
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

    Each machine is (graph, live, tag, check): an automaton whose live
    states should be exactly the words of L, the prefix of its
    membership mismatches, and None or check(w, state, element index),
    which returns the mismatches of a word that is in L and live.

    Each word w is judged once for all machines: w is in L iff every
    suffix of every prefix passes the quasi-geodesic bound, so a node
    carries the ball indices of its suffixes and a child tests only its
    new suffixes, with integer thresholds.  The machines' states are
    carried along as one joint state.  A subtree is skipped only when
    its root is not in L, so neither is any extension, and no machine's
    state can reach a live state, so no extension is accepted either.

    Returns one report per machine, listing tag + (w, in_L, got_live)
    for a membership mismatch, plus whatever check returns, in the order
    of a full breadth-first walk.  A machine walked with others reports
    what it reports alone: below a state that reaches no live state it
    meets only words that are neither in L nor live.
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
    rows = [graph.transitions for graph, *_ in machines]
    dooms = [
        frozenset(range(graph.n_states)) - coaccessible(restrict_accepting(graph, live))
        for graph, live, *_ in machines
    ]
    out: list = [[] for _ in machines]
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

    # (w, joint state, ball indices of w[i:] for i = 0..|w|) with None for
    # the indices once w has left L
    frontier: list = [("", intern(tuple(m[0].initial for m in machines)), (0,))]
    for depth in range(R + 1):
        nxt: list = []
        for w, p, sfx in frontier:
            in_L = sfx is not None
            for k, s in enumerate(states[p]):
                _, live, tag, check = machines[k]
                got = s in live
                if in_L != got:
                    out[k].append(tag + (w, in_L, got))
                elif got and check is not None:
                    out[k].extend(check(w, s, sfx[0]))
            if depth == R or (not in_L and doomed[p]):
                continue
            ks = kids[p]
            if ks is None:
                ks = kids[p] = [
                    intern(tuple(rw[s][i] for rw, s in zip(rows, states[p])))
                    for i in range(len(letters))
                ]
            for i, x in enumerate(letters):
                child = None
                if in_L:
                    child = (*[edges[j][x] for j in sfx], 0)
                    for k, j in enumerate(child[:-1]):
                        if dist[j] < need[depth + 1 - k]:
                            child = None
                            break
                nxt.append((w + x, ks[i], child))
        frontier = nxt
    return [ValidationReport(R, tuple(m)) for m in out]


def _direct_value(ext: CentralExtension, kind: str, w: Word, x: str):
    """Ground-truth cocycle value for the word that reached a state."""
    if kind == Q_LEFT:
        return sigma_q(ext, w, x)
    if kind == RHO_LEFT:
        return sigma_rho(ext, w, x)
    return sigma_rho(ext, x, ext.base.alphabet.inverse_word(w))


def _family_machine(
    fam: PredictorFamily, ext: CentralExtension, cocycles: BallCocycles
) -> tuple:
    """The family as a machine of _walk, its check comparing predicted
    and expected values for every letter.

    A word's predicted row (one value per letter, read at its state) is
    compared whole with the expected row at its ball element; only when
    they differ, or the expected row holds an element the tables cannot
    reach, are the letters checked one by one, by the string route where
    the row reads None.
    """
    kind = fam.kind
    letters = ext.base.alphabet.letters
    group = ext.pushout_kernel if kind == Q_LEFT else ext.kernel
    if kind == Q_LEFT:
        q_rows: list = [None] * len(cocycles.ball)

        def expected_row(g):
            row = q_rows[g]
            if row is None:
                row = q_rows[g] = cocycles.q_left_row(g)
            return row
    elif kind == RHO_LEFT:
        expected_row = cocycles.rho_left.__getitem__
    else:
        inverse, rho_right = cocycles.inverse, cocycles.rho_right
        unreached = (None,) * len(letters)

        def expected_row(g):
            h = inverse[g]
            return unreached if h is None else tuple([col[h] for col in rho_right])
    # predicted values as coordinate tuples; a value in the wrong group
    # never equals an expected one
    predicted = [
        tuple(v.coords() if v is not None and v.group == group else v for v in row)
        for row in zip(*(fam.values[x] for x in letters))
    ]

    def check(w, s, g):
        exp = expected_row(g)
        if exp == predicted[s] and None not in exp:
            return ()
        out = []
        for xi, x in enumerate(letters):
            e = exp[xi]
            if e is None:
                direct = _direct_value(ext, kind, w, x)
                if direct != fam.values[x][s]:
                    out.append(("value", w, x, direct, fam.values[x][s]))
            elif e != predicted[s][xi]:
                expected = group.element(e[: group.rank], e[group.rank :])
                out.append(("value", w, x, expected, fam.values[x][s]))
        return out

    return (fam.graph, fam.live, ("membership",), check)

