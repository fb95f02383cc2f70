"""Reduction of equation systems over a central extension to constrained
systems over the free group on the base generators and over the abelian
kernel.

A system over E is triangularized into three-symbol rows, projected to
the base group, and fanned out over the finite index set Theta of tuples
(c, sbar, b, d).  Each index yields a tripod system V_t over words in
the base generators X, with rational constraints read straight off the
L-side automata, and an abelian linear system W_t; the source system is
solvable iff some V_t and W_t both are, and a joint solution lifts back
to E through the symmetric section with every step of the lift
re-verified by direct multiplication.

V_t is solved in the free group on X, whose words map to the base group
by taking normal forms.  On a finite base group this suffices for
completeness: every base-group solution admits the trivial tripod
decomposition p = 1, c = nf(g), whose index tuple ("witness tuple") the
driver constructs directly instead of scanning the full Theta stream.
The driver only ever reports Unsolvable in that finite-complete regime;
everywhere else exhaustion of bounds yields an explicit
no-solution-within-bounds report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .abelian import (
    AbelianLinearSystem,
    FGAElement,
    iota1,
    iota1_inverse,
    iota4,
    pa,
    solve_linear_system,
)
from .automata import FSA, explore, words_up_to
from .errors import (
    AccumulatorBound,
    BallTooSmall,
    EmptyEquation,
    Incompatible,
    LiftVerificationFailed,
    NotAcceptingState,
    NotInImage,
    ResourceBound,
    ValueNotInASet,
)
from .extension import (
    RHO_PRIME,
    BallCocycles,
    CentralExtension,
    ExtElement,
    identity,
    in_E,
    iota2,
    iota2_inverse,
    q_of,
    sigma_q,
    sigma_rho,
)
from .fpa_ppa import (
    PPA,
    build_ppa,
    fpa_branch,
    is_compatible,
    ppa_branch,
    sigma_q_of_state,
)
from .lrational import (
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    PredictorFamily,
    build_automata,
)
from .words import (
    CayleyBall,
    Presentation,
    Word,
    build_ball,
    normal_form,
    state_cap,
)

IDENTITY = "1"

SOLVED = "solved"
NO_SOLUTION_WITHIN_BOUNDS = "no-solution-within-bounds"
UNSOLVABLE = "unsolvable"

FOUND = "found"
EXHAUSTED_BOUND = "exhausted-bound"


# -- symbols and equation systems ---------------------------------------
#
# Equation symbols are string tokens; a token whose first character is
# uppercase denotes the inverse of its swapcase ("X" is the inverse of
# "x", "T.1" of "t.1").  The reserved token "1" names the identity
# constant and is its own inverse.


def is_inverse_token(tok: str) -> bool:
    return tok != tok.swapcase() and tok[0].isupper()


def base_token(tok: str) -> str:
    return tok.swapcase() if is_inverse_token(tok) else tok


def _normalize_equation(eq) -> tuple[str, ...]:
    if isinstance(eq, str):
        eq = eq.split()
    return tuple(eq)


@dataclass(frozen=True)
class EquationSystem:
    """Finite system of equations w_i = 1 over variables and constants.

    Equations are sequences of tokens (a plain string is split on
    whitespace); constants map symbol names to elements of E
    (ExtElement), whose base-group value is their normal form `.g`.
    """

    variables: tuple[str, ...]
    constants: dict = field(compare=False)
    equations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "equations", tuple(_normalize_equation(e) for e in self.equations)
        )
        for i, name in enumerate(self.variables):
            if name in self.variables[:i]:
                raise ValueError(f"variable {name!r} declared twice")
        declared = set(self.variables) | set(self.constants)
        overlap = set(self.variables) & set(self.constants)
        if overlap:
            raise ValueError(f"symbols both variable and constant: {sorted(overlap)}")
        for name, value in self.constants.items():
            if not isinstance(value, ExtElement):
                raise ValueError(
                    f"constant {name!r} is not an extension element: "
                    f"{type(value).__name__}"
                )
        for name in declared:
            if not name:
                raise ValueError("declared symbol has an empty name")
            if name[0].isupper():
                raise ValueError(f"declared symbol may not start uppercase: {name!r}")
            if name == IDENTITY:
                raise ValueError(f"declared symbol {IDENTITY!r} names the identity")
        for eq in self.equations:
            if not eq:
                raise EmptyEquation("equation with no symbols")
            for tok in eq:
                if base_token(tok) not in declared:
                    raise ValueError(f"undeclared symbol {tok!r}")


@dataclass(frozen=True)
class TriangularSystem:
    """Equivalent system of three-symbol rows over plain symbols.

    Fresh variables (split products, inverse copies) are recorded with
    defining token words so a solution of the source extends uniquely;
    dropping the fresh variables projects back.
    """

    source: EquationSystem
    variables: tuple[str, ...]
    fresh: tuple[str, ...]
    fresh_defs: tuple[tuple[str, tuple[str, ...]], ...]
    constants: dict = field(compare=False)
    rows: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        declared = set(self.variables) | set(self.constants)
        for row in self.rows:
            if len(row) != 3:
                raise ValueError(f"row {row!r} not of length 3")
            for sym in row:
                if is_inverse_token(sym) or sym not in declared:
                    raise ValueError(f"row symbol {sym!r} not a plain declared symbol")

    def cells(self):
        for i, row in enumerate(self.rows):
            for j, sym in enumerate(row):
                yield i, j, sym

    def row_symbols(self) -> tuple[str, ...]:
        seen: list[str] = []
        for _, _, sym in self.cells():
            if sym not in seen:
                seen.append(sym)
        return tuple(seen)


def triangularize(sys: EquationSystem, identity_element: ExtElement) -> TriangularSystem:
    """Rewrite every equation into rows of exactly three plain symbols.

    Long equations are split with fresh product variables; because rows
    carry no inverse tokens, each fresh product comes with an inverse
    copy and a linking row (t, t', 1) = 1, and likewise each variable
    that occurs inverted.  Short rows are padded with the identity
    constant, identity_element.  Solution sets biject: forget the fresh variables one way,
    evaluate their defining words the other.
    """
    constants = dict(sys.constants)
    variables = list(sys.variables)
    fresh: list[str] = []
    fresh_defs: list[tuple[str, tuple[str, ...]]] = []
    rows: list[tuple[str, str, str]] = []
    link_rows: list[tuple[str, str, str]] = []
    used = set(variables) | set(constants) | {IDENTITY}
    needs_identity = False

    def new_var(stem: str) -> str:
        name = stem
        while name in used:
            name += "'"
        used.add(name)
        variables.append(name)
        fresh.append(name)
        return name

    inverse_vars: dict[str, str] = {}

    def plain(tok: str) -> str:
        nonlocal needs_identity
        if not is_inverse_token(tok):
            return tok
        base = base_token(tok)
        if base in constants:
            name = base + ".inv"
            while name in used and name not in constants:
                name += "'"
            if name not in constants:
                constants[name] = constants[base].inverse()
                used.add(name)
            return name
        if base not in inverse_vars:
            inv = new_var(base + ".inv")
            inverse_vars[base] = inv
            fresh_defs.append((inv, (tok,)))
            link_rows.append((base, inv, IDENTITY))
            needs_identity = True
        return inverse_vars[base]

    counter = 0
    for eq in sys.equations:
        es = [plain(tok) for tok in eq]
        while len(es) > 3:
            counter += 1
            t = new_var(f"t.{counter}")
            u = new_var(f"u.{counter}")
            fresh_defs.append((t, (es[1].swapcase(), es[0].swapcase())))
            fresh_defs.append((u, (es[0], es[1])))
            link_rows.append((t, u, IDENTITY))
            needs_identity = True
            rows.append((es[0], es[1], t))
            es = [u] + es[2:]
        if len(es) < 3:
            needs_identity = True
        while len(es) < 3:
            es.append(IDENTITY)
        rows.append(tuple(es))
    rows.extend(link_rows)
    if needs_identity and IDENTITY not in constants:
        constants[IDENTITY] = identity_element
    return TriangularSystem(
        source=sys,
        variables=tuple(variables),
        fresh=tuple(fresh),
        fresh_defs=tuple(fresh_defs),
        constants=constants,
        rows=tuple(rows),
    )


def _resolve_token(tok: str, values: dict, invert):
    base = base_token(tok)
    value = values[base]
    return invert(value) if tok != base else value


def check_in_extension(sys, ext: CentralExtension, assignment: dict) -> bool:
    """Direct multiplication check of every equation in E."""
    values = {**sys.constants, **assignment}
    equations = sys.rows if isinstance(sys, TriangularSystem) else sys.equations
    for eq in equations:
        acc = identity(ext)
        for tok in eq:
            acc = acc * _resolve_token(tok, values, lambda e: e.inverse())
        if not acc.is_identity():
            return False
    return True


def check_in_base(sys, p: Presentation, assignment: dict) -> bool:
    """Normal-form check of every equation in the base group, where each
    constant e reads as its base part e.g."""
    values = {**{name: e.g for name, e in sys.constants.items()}, **assignment}
    equations = sys.rows if isinstance(sys, TriangularSystem) else sys.equations
    for eq in equations:
        w = "".join(
            _resolve_token(tok, values, p.alphabet.inverse_word) for tok in eq
        )
        if normal_form(p, w) != "":
            return False
    return True


def extend_to_fresh(
    tri: TriangularSystem, p: Presentation, gamma: dict[str, Word]
) -> dict[str, Word]:
    """Extend a base-group solution of the source over the fresh variables
    by evaluating their defining words."""
    values = {name: e.g for name, e in tri.constants.items()}
    values.update((v, normal_form(p, w)) for v, w in gamma.items())
    for name, toks in tri.fresh_defs:
        w = "".join(
            _resolve_token(tok, values, p.alphabet.inverse_word) for tok in toks
        )
        values[name] = normal_form(p, w)
    return {v: values[v] for v in tri.variables if v in values}


# -- Theta --------------------------------------------------------------


@dataclass(frozen=True)
class ThetaIndex:
    """One index tuple (c, sbar, b, d), d in the kernel's parity group.
    Each cell's a = sigma_q(sbar, c) and end state are F's (_cell)."""

    c: tuple[tuple[Word, Word, Word], ...]
    s: tuple[tuple[int, int, int], ...]
    b: tuple[tuple[FGAElement, ...], ...]
    d: tuple[tuple[FGAElement, ...], ...]

    def to_jsonable(self):
        return {
            "c": [list(row) for row in self.c],
            "s": [list(row) for row in self.s],
            "b": [[list(x.coords()) for x in row] for row in self.b],
            "d": [[list(x.coords()) for x in row] for row in self.d],
        }


def _cell(F: PredictorFamily, s: int, c: Word) -> tuple[FGAElement, int]:
    """(sigma_q(s̄, c), the state c reaches from s̄), kept on F by the
    cell; a cell that raises is not kept, so it raises again."""
    cell = F.memo.get(("cell", s, c))
    if cell is None:
        # sigma_q_of_state raises unless s̄ is in T and c compatible
        cell = (sigma_q_of_state(F, s, c), F.graph.run(c, start=s))
        F.memo[("cell", s, c)] = cell
    return cell


def _c_words(F: PredictorFamily, kappa2: int):
    """The freely reduced words of length <= kappa2, their buckets by
    normal form and each one's normal form, kept on F by kappa2."""
    kept = F.memo.get(("c-words", kappa2))
    if kept is None:
        base = F.ext.base
        words = tuple(
            w
            for w in words_up_to(base.alphabet, kappa2)
            if base.alphabet.is_freely_reduced(w)
        )
        nf_of = {w: normal_form(base, w) for w in words}
        groups: dict[Word, list[Word]] = {}
        for w, g in nf_of.items():
            groups.setdefault(g, []).append(w)
        bucket = {g: tuple(ws) for g, ws in groups.items()}
        kept = F.memo[("c-words", kappa2)] = (words, bucket, nf_of)
    return kept


def _gen_c_rows(base: Presentation, words, bucket, nf_of):
    # only triples with trivial row product are formed, the third component
    # bucketed by its value; c1 c2 is reduced from nf(c1): fewer distinct words
    for c1, c2 in itertools.product(words, repeat=2):
        g12 = normal_form(base, nf_of[c1] + c2)
        for c3 in bucket.get(normal_form(base, base.alphabet.inverse_word(g12)), ()):
            yield (c1, c2, c3)


def _compatible_states(F: PredictorFamily, c: Word) -> tuple[int, ...]:
    """The states of T, ascending, that c is compatible with; kept on F."""
    opts = F.memo.get(("compatible", c))
    if opts is None:
        opts = tuple(sb for sb in sorted(F.live) if is_compatible(F, sb, c))
        F.memo[("compatible", c)] = opts
    return opts


def enumerate_theta(tri: TriangularSystem, pipe: Pipeline):
    """Deterministic stream of every tuple satisfying the four Theta
    conditions, with two identification rules, since differing choices
    leave V_t unsatisfiable: cells sharing an equation symbol share
    their parity datum d (the parity of a cell is a function of the
    cell's group element), and a constant's cells carry its element's
    true parity.

    The c-words, the c-rows of systems of more than one row and each
    c-word's compatible states depend on F and kappa2 alone, so F keeps
    them for every later solve.
    """
    F, kappa2 = pipe.F, pipe.kappa2
    ext = F.ext
    base = ext.base
    n = len(tri.rows)
    words, bucket, nf_of = _c_words(F, kappa2)
    if n == 1:
        # one row's c-rows can run to millions (about 10^6 c-words at
        # kappa2 = 7 on a genus-2 base), so they stay a lazy stream
        c_mats = ((row,) for row in _gen_c_rows(base, words, bucket, nf_of))
    else:
        c_rows = F.memo.get(("c-rows", kappa2))
        if c_rows is None:
            c_rows = tuple(_gen_c_rows(base, words, bucket, nf_of))
            F.memo[("c-rows", kappa2)] = c_rows
        c_mats = itertools.product(c_rows, repeat=n)
    d_values = list(ext.kernel.parity().elements())
    syms = tri.row_symbols()
    pinned: dict[str, FGAElement] = {}
    for sym in syms:
        if sym in tri.constants:
            g = tri.constants[sym].g
            pinned[sym] = pa(sigma_rho(ext, g, base.alphabet.inverse_word(g)))
    d_opts = [(pinned[sym],) if sym in pinned else d_values for sym in syms]
    for c_mat in c_mats:
        s_opts = [_compatible_states(F, c) for row in c_mat for c in row]
        if not all(s_opts):
            continue
        for s_flat in itertools.product(*s_opts):
            b_opts = [
                _accumulator(F, s_flat[k], c_mat[k // 3][k % 3]).values
                for k in range(3 * n)
            ]
            s_mat = tuple(
                tuple(s_flat[3 * i : 3 * i + 3]) for i in range(n)
            )
            for b_flat in itertools.product(*b_opts):
                b_mat = tuple(
                    tuple(b_flat[3 * i : 3 * i + 3]) for i in range(n)
                )
                for d_choice in itertools.product(*d_opts):
                    dmap = dict(zip(syms, d_choice))
                    d_mat = tuple(
                        tuple(dmap[sym] for sym in row) for row in tri.rows
                    )
                    yield ThetaIndex(c_mat, s_mat, b_mat, d_mat)


def witness_theta(
    tri: TriangularSystem, pipe: Pipeline, gamma: dict[str, Word]
) -> tuple[ThetaIndex, dict[str, Word]]:
    """The index tuple read off a base-group solution with the trivial
    tripod decomposition p = 1, c = nf(g), plus the matching V-solution.

    With that decomposition every sbar is the initial state and every a
    and b vanishes; d is the parity of each cell's element.
    """
    F, kappa2 = pipe.F, pipe.kappa2
    ext = F.ext
    base = ext.base
    init = F.graph.initial
    if init not in F.live:
        raise NotAcceptingState("initial state not accepting; empty word not in L")
    zero_b = ext.pushout_kernel.zero()
    c_rows, d_rows = [], []
    vsol: dict[str, Word] = {}
    for i, row in enumerate(tri.rows):
        cs, ds = [], []
        for j, sym in enumerate(row):
            if sym in tri.constants:
                g = tri.constants[sym].g
            else:
                g = normal_form(base, gamma[sym])
            if len(g) > kappa2:
                raise ResourceBound(
                    f"kappa2={kappa2} too small for witness word {g!r}"
                )
            if not F.graph.accepts(g):
                raise Incompatible(f"normal form {g!r} rejected by L")
            cs.append(g)
            ds.append(pa(sigma_rho(ext, g, base.alphabet.inverse_word(g))))
            vsol[_v_name(sym)] = g
            vsol[_p_name(i, j)] = ""
        if normal_form(base, "".join(cs)) != "":
            raise ValueError(f"assignment does not solve row {i}: {row}")
        c_rows.append(tuple(cs))
        d_rows.append(tuple(ds))
    n = len(tri.rows)
    t = ThetaIndex(
        tuple(c_rows), ((init,) * 3,) * n, ((zero_b,) * 3,) * n, tuple(d_rows)
    )
    return t, vsol


# -- the A sets and their level automata --------------------------------


class _AbGraph(NamedTuple):
    sprime: int
    states: tuple
    rows: tuple
    values: tuple  # the A-set, sorted by coordinates


def _ab_graph(F: PredictorFamily, sprime: int) -> _AbGraph:
    """BFS graph over (state-from-s', state-from-initial, accumulator)
    triples; the accumulator is the chain-rule value sigma_q(s', w)."""
    M, T, a_of, step_M = F.graph, F.live, F.a_of, F.graph.step

    def step(state, x):
        cur, icur, acc = state
        if cur not in T or icur not in T:
            return None
        a, b = a_of(cur, x), a_of(icur, x)
        return (step_M(cur, x), step_M(icur, x), acc if a == b else acc + a - b)

    start = (sprime, M.initial, F.ext.pushout_kernel.zero())
    states, rows = explore(
        M.alphabet, start, step, AccumulatorBound, "accumulator graph"
    )
    values = {st[2] for st in states if st is not None and st[0] in T}
    return _AbGraph(
        sprime, tuple(states), rows, tuple(sorted(values, key=lambda a: a.coords()))
    )


def _accumulator(F: PredictorFamily, sbar: int, c: Word) -> _AbGraph:
    """The accumulator graph of s' = c read from sbar, built on the first
    call for that s' and kept on F; a kept graph larger than the cap in
    force now raises as building it would."""
    if sbar not in F.live:
        raise NotAcceptingState(f"state {sbar} not in T")
    sprime = F.graph.run(c, start=sbar)
    if sprime not in F.live:
        raise Incompatible(f"{c!r} not compatible with state {sbar}")
    cap = state_cap()
    graph = F.memo.get(("ab", sprime))
    if graph is None:
        graph = F.memo[("ab", sprime)] = _ab_graph(F, sprime)
    elif len(graph.states) > cap:
        raise AccumulatorBound(f"accumulator graph exceeds cap {cap}")
    return graph


def build_Lb_automaton(
    F: PredictorFamily, sbar: int, c: Word, b: FGAElement
) -> FSA:
    """DFA for L(b) = {w compatible with s' : sigma_q(s', w) = b}, kept
    on F by (s', b)."""
    graph = _accumulator(F, sbar, c)
    Lb = F.memo.get(("Lb", graph.sprime, b))
    if Lb is None:
        if b not in graph.values:
            raise ValueNotInASet(f"{b.coords()} not in A(sbar={sbar}, c={c!r})")
        accepting = frozenset(
            i
            for i, st in enumerate(graph.states)
            if st is not None and st[0] in F.live and st[2] == b
        )
        Lb = F.memo[("Lb", graph.sprime, b)] = FSA(
            F.graph.alphabet, graph.rows, 0, accepting
        )
    return Lb


def build_Le_automaton(F: PredictorFamily, g: Word, ball: CayleyBall) -> FSA:
    """DFA for the L-representatives of a base-group element.

    Tracks the walked element through the slack set S(g) of the ball
    elements u with d(u) + d(u, g) <= d(g) + nu, d(u, g) measured inside
    the ball; a walk leaving S(g) is dead.  If a word w reaches g inside
    the ball, each prefix u has d(u) <= |u| and d(u, g) <= |w| - |u|, so
    all of them lie in S(g) when |w| <= d(g) + nu.  Hence the automaton
    accepts every word of F of that length that reaches g inside the
    ball, and only words of F that do.  It is exact, the same language
    as F's product with the whole ball, whenever no longer word of F
    reaches g inside the ball; that holds where F recognizes L, since an
    L-word w for g has |w| <= d(g) + nu.  Kept on F by nf(g) together
    with the ball it was built over.
    """
    gnf = normal_form(F.ext.base, g)
    nu = F.lspec.nu
    slack = len(gnf) + nu
    if ball.radius < slack:
        raise BallTooSmall(
            f"representative automaton for {gnf!r} needs radius >= "
            f"{slack}, ball has {ball.radius}"
        )
    kept = F.memo.get(("Le", gnf))
    if kept is not None and kept[0] is ball:
        return kept[1]
    target = ball.index[gnf]
    # S(g) by BFS out of g, layer k at d(u, g) = k: a ball geodesic from
    # u in S(g) to g stays in S(g), so the BFS need never leave it
    dist = ball.distances
    within = {target}
    frontier = [target]
    for depth in range(1, slack + 1):
        nxt = []
        for i in frontier:
            for j in ball.edges[i]:
                if j is not None and j not in within and dist[j] + depth <= slack:
                    within.add(j)
                    nxt.append(j)
        frontier = nxt
    M, edges = F.graph, ball.edges
    position = ball.presentation.alphabet.position

    def step(state, x):
        e2 = edges[state[1]][position[x]]
        return (M.step(state[0], x), e2) if e2 in within else None

    states, rows = explore(
        M.alphabet, (M.initial, 0), step, what="representative automaton"
    )
    accepting = frozenset(
        i
        for i, st in enumerate(states)
        if st is not None and st[0] in M.accepting and st[1] == target
    )
    Le = FSA(M.alphabet, rows, 0, accepting)
    F.memo[("Le", gnf)] = (ball, Le)
    return Le


# -- V_t and W_t --------------------------------------------------------


def _p_name(i: int, j: int) -> str:
    return f"p:{i}.{j}"


def _v_name(sym: str) -> str:
    return f"v:{sym}"


def _w_name(sym: str) -> str:
    return f"w:{sym}"


@dataclass
class VSystem:
    """Tripod equations p_j c_j p_{j+1}^-1 = v_j with rational
    constraints, all over words in the base generators.

    Constraints are (automaton, inverted) pairs; an inverted constraint
    holds when the automaton accepts the inverse of the assigned word.
    The automata are immutable and shared with every other index tuple
    and solve of the same pipeline, and the oracle keeps what depends on
    them alone on F's memo.  Group arithmetic is free reduction over F's
    base alphabet.  Cells sharing an equation symbol share their v
    variable; all p variables are distinct.
    """

    t: ThetaIndex
    tri: TriangularSystem
    F: PredictorFamily = field(repr=False)
    p_names: tuple[tuple[str, str, str], ...]
    v_names: tuple[tuple[str, str, str], ...]
    constraints: dict[str, tuple]

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for names in self.p_names + self.v_names:
            for name in names:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def _constraint_ok(self, name: str, word: Word) -> bool:
        inverse_word = self.F.ext.base.alphabet.inverse_word
        for fsa, inverted in self.constraints.get(name, ()):
            if not fsa.accepts(inverse_word(word) if inverted else word):
                return False
        return True

    def check(self, assignment: dict[str, Word]) -> bool:
        alphabet = self.F.ext.base.alphabet
        free_reduce, inverse_word = alphabet.free_reduce, alphabet.inverse_word
        c, p_names = self.t.c, self.p_names
        for i in range(len(self.tri.rows)):
            for j in range(3):
                lhs = free_reduce(
                    assignment[p_names[i][j]]
                    + c[i][j]
                    + inverse_word(assignment[p_names[i][(j + 1) % 3]])
                )
                if lhs != free_reduce(assignment[self.v_names[i][j]]):
                    return False
        return all(
            self._constraint_ok(name, assignment[name]) for name in self.variables()
        )


def build_Vt(t: ThetaIndex, tri: TriangularSystem, pipe: Pipeline) -> VSystem:
    """Attach all four constraint families of the index tuple:
    p in L(sbar), p_next^-1 in L(b), v in L(d), and v in L(e).

    Each automaton is built on its first use and kept on F or D, so the
    index tuples and solves of one pipeline share it; it is immutable.
    """
    F, D, ball = pipe.F, pipe.D, pipe.ball
    constraints: dict[str, list] = {}

    def add(name, fsa, inverted=False):
        constraints.setdefault(name, []).append((fsa, inverted))

    L_full = F.graph
    p_names = []
    v_names = []
    for i, row in enumerate(tri.rows):
        p_names.append(tuple(_p_name(i, j) for j in range(3)))
        v_names.append(tuple(_v_name(sym) for sym in row))
        for j, sym in enumerate(row):
            add(_p_name(i, j), fpa_branch(F, t.s[i][j]))
            Lb = build_Lb_automaton(F, t.s[i][j], t.c[i][j], t.b[i][j])
            add(_p_name(i, (j + 1) % 3), Lb, inverted=True)
            add(_v_name(sym), ppa_branch(D, t.d[i][j]))
            if sym in tri.constants:
                add(_v_name(sym), build_Le_automaton(F, tri.constants[sym].g, ball))
            else:
                add(_v_name(sym), L_full)
    return VSystem(
        t=t,
        tri=tri,
        F=F,
        p_names=tuple(p_names),
        v_names=tuple(v_names),
        constraints={k: tuple(v) for k, v in constraints.items()},
    )


@dataclass
class WSystem:
    """Abelian linear system over the kernel, or the distinguished
    no-solution marker when some iota1-preimage does not exist.

    One call of solve_linear_system, one Smith form per coordinate,
    gives both the assignment and the obstruction, a certificate of
    unsolvability: the failing row of the first coordinate without a
    solution, or {"reason": ...} for the marker."""

    system: Optional[AbelianLinearSystem]
    constant_values: dict[str, FGAElement]
    no_solution: Optional[str] = None

    @cached_property
    def _outcome(self) -> tuple[Optional[dict[str, FGAElement]], Optional[dict]]:
        if self.no_solution is not None:
            return None, {"reason": self.no_solution}
        return solve_linear_system(self.system)

    def solve(self) -> Optional[dict[str, FGAElement]]:
        return self._outcome[0]

    def obstruction(self) -> Optional[dict]:
        return self._outcome[1]


def _constant_preimage(
    ext: CentralExtension, sym: str, e: ExtElement, d: FGAElement
) -> Optional[FGAElement]:
    """iota1^-1(iota2(e) q(p(e))^-1 iota4(d)), or None where there is no
    preimage; raises if e's central part leaves the kernel."""
    central = iota2(e) * q_of(ext, e.g).inverse()
    if central.g != "":
        raise LiftVerificationFailed(f"constant {sym!r} drifted off the section")
    try:
        return iota1_inverse(central.a + iota4(d, ext.kernel))
    except NotInImage:
        return None


def _row_preimage(t: ThetaIndex, i: int, F: PredictorFamily) -> Optional[FGAElement]:
    """iota1^-1(sum(a + b + iota4(d)) - sigma_q(pi(c1), pi(c2))) of row
    i, or None where there is no preimage."""
    ext = F.ext
    total = ext.pushout_kernel.zero()
    for j in range(3):
        a = _cell(F, t.s[i][j], t.c[i][j])[0]
        total = total + a + t.b[i][j] + iota4(t.d[i][j], ext.kernel)
    total = total - sigma_q(ext, t.c[i][0], t.c[i][1])
    try:
        return iota1_inverse(total)
    except NotInImage:
        return None


_MISSING = object()


def build_Wt(t: ThetaIndex, tri: TriangularSystem, F: PredictorFamily) -> WSystem:
    """One kernel equation per row: the w-variables of the row sum to
    iota1^-1(sum(a + b + iota4(d)) - sigma_q(pi(c1), pi(c2))), with
    constant cells contributing iota1^-1(iota2(e) q(p(e))^-1 iota4(d))
    moved to the right-hand side.  Any missing iota1-preimage makes the
    whole system the no-solution marker.

    Both preimages are kept on F, for every later tuple and solve of the
    pipeline: the constant's by its (g, a) and d, the row's by its
    (c, sbar, b, d) row, a being a function of sbar and c."""
    ext, memo = F.ext, F.memo
    d_of: dict[str, FGAElement] = {}
    for i, j, sym in tri.cells():
        if sym in d_of and d_of[sym] != t.d[i][j]:
            return WSystem(None, {}, f"conflicting parity data for {sym!r}")
        d_of[sym] = t.d[i][j]
    constant_values: dict[str, FGAElement] = {}
    for sym, d in d_of.items():
        if sym not in tri.constants:
            continue
        e = tri.constants[sym]
        key = ("constant", e.g, e.a, d)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = _constant_preimage(ext, sym, e, d)
        if value is None:
            return WSystem(
                None, {}, f"constant {sym!r} has no kernel preimage"
            )
        constant_values[sym] = value
    var_syms = [s for s in tri.row_symbols() if s not in tri.constants]
    system = AbelianLinearSystem(ext.kernel, tuple(_w_name(s) for s in var_syms))
    for i, row in enumerate(tri.rows):
        key = ("row", t.c[i], t.s[i], t.b[i], t.d[i])
        rhs = memo.get(key, _MISSING)
        if rhs is _MISSING:
            rhs = memo[key] = _row_preimage(t, i, F)
        if rhs is None:
            return WSystem(None, {}, f"row {i} right-hand side has no kernel preimage")
        coeffs: dict[str, int] = {}
        for sym in row:
            if sym in tri.constants:
                rhs = rhs - constant_values[sym]
            else:
                name = _w_name(sym)
                coeffs[name] = coeffs.get(name, 0) + 1
        system.add(coeffs, rhs)
    return WSystem(system, constant_values)


# -- the bounded oracle -------------------------------------------------


@dataclass
class OracleOutcome:
    status: str
    assignment: Optional[dict[str, Word]] = None

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _p_domains(V: VSystem, bound: int) -> dict[str, tuple[Word, ...]]:
    """Each p-variable's words of length <= bound that meet its
    constraints, in shortlex order.  A domain is kept on the pipeline by
    the bound and the variable's (automaton, inverted) constraints; the
    entry holds those automata, so the ids in its key stay theirs."""
    candidates = None
    domains = {}
    for names in V.p_names:
        for name in names:
            cons = V.constraints.get(name, ())
            key = ("domain", bound, tuple((id(fsa), inv) for fsa, inv in cons))
            kept = V.F.memo.get(key)
            if kept is None:
                if candidates is None:
                    candidates = tuple(words_up_to(V.F.ext.base.alphabet, bound))
                domain = tuple(w for w in candidates if V._constraint_ok(name, w))
                kept = V.F.memo[key] = (cons, domain)
            domains[name] = kept[1]
    return domains


def vf_oracle_solve(V: VSystem, bound: int) -> OracleOutcome:
    """Bounded brute force: p-variables range over constrained words of
    length <= bound, v-words are derived from the tripod equations (so
    may be up to 2*bound + kappa2 long), and constraint membership is
    tested on the searched words themselves.  Deterministic shortlex
    order; exhaustion is not a nonexistence proof."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    v_assign, p_assign = {}, {}
    if _fill_rows(V, _p_domains(V, bound), 0, v_assign, p_assign):
        return OracleOutcome(FOUND, {**p_assign, **v_assign})
    return OracleOutcome(EXHAUSTED_BOUND)


def _fill_rows(
    V: VSystem, domains: dict, i: int, v_assign: dict, p_assign: dict
) -> bool:
    """Fill rows i, i+1, ... of V in shortlex order, extending the
    assignments in place; True once all are filled.  Its state is in its
    arguments, so no reference cycle keeps V alive after a search."""
    if i == len(V.tri.rows):
        return True
    alphabet = V.F.ext.base.alphabet
    free_reduce, inverse_word = alphabet.free_reduce, alphabet.inverse_word
    constraint_ok, c, pn = V._constraint_ok, V.t.c[i], V.p_names[i]
    for trip in itertools.product(domains[pn[0]], domains[pn[1]], domains[pn[2]]):
        added = []
        ok = True
        for j in range(3):
            w = free_reduce(trip[j] + c[j] + inverse_word(trip[(j + 1) % 3]))
            name = V.v_names[i][j]
            if name in v_assign:
                if v_assign[name] != w:
                    ok = False
                    break
            elif constraint_ok(name, w):
                v_assign[name] = w
                added.append(name)
            else:
                ok = False
                break
        if ok:
            for j in range(3):
                p_assign[pn[j]] = trip[j]
            if _fill_rows(V, domains, i + 1, v_assign, p_assign):
                return True
        for name in added:
            del v_assign[name]
    return False


# -- constraint lemma and lifting ---------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def check_constraint_lemma(V: VSystem, vsol: dict[str, Word]) -> LemmaReport:
    """Direct re-derivation of the four constraint consequences from a
    V-solution: (1) sigma_q(pi(p), pi(c)) = a; (2) sigma_q(pi(p c),
    pi(p_next^-1)) = b; (3) Pa(sigma_rho(pi(v), pi(v)^-1)) = d;
    (4) pi(v) = p(e) for constant cells."""
    ext, t = V.F.ext, V.t
    base = ext.base
    inverse_word = base.alphabet.inverse_word
    failures = []
    for i, row in enumerate(V.tri.rows):
        for j, sym in enumerate(row):
            pw = vsol[V.p_names[i][j]]
            pnext = vsol[V.p_names[i][(j + 1) % 3]]
            cw = t.c[i][j]
            vw = vsol[V.v_names[i][j]]
            if sigma_q(ext, pw, cw) != _cell(V.F, t.s[i][j], cw)[0]:
                failures.append((1, i, j))
            if sigma_q(ext, pw + cw, inverse_word(pnext)) != t.b[i][j]:
                failures.append((2, i, j))
            if pa(sigma_rho(ext, vw, inverse_word(vw))) != t.d[i][j]:
                failures.append((3, i, j))
            if sym in V.tri.constants:
                if normal_form(base, vw) != V.tri.constants[sym].g:
                    failures.append((4, i, j))
    return LemmaReport(tuple(failures))


@dataclass
class LiftOutcome:
    assignment: dict[str, ExtElement]
    elements: dict[str, ExtElement]
    certificate: dict


def lift_solution(
    V: VSystem,
    W: WSystem,
    vsol: dict[str, Word],
    wsol: dict[str, FGAElement],
) -> LiftOutcome:
    """Assemble e = q(pi(v)) i(iota1(w) - iota4(d)) per cell and verify:
    each row multiplies to the identity, every element lies in the
    embedded copy of E, and constant cells reproduce their constants.
    Returns the E-assignment of the source variables."""
    ext, t, tri = V.F.ext, V.t, V.tri
    per_sym: dict[str, ExtElement] = {}
    transcript = []
    for i, row in enumerate(tri.rows):
        row_elts = []
        for j, sym in enumerate(row):
            gword = normal_form(ext.base, vsol[V.v_names[i][j]])
            if sym in tri.constants:
                wval = W.constant_values[sym]
            else:
                wval = wsol[_w_name(sym)]
            aprime = iota1(wval) - iota4(t.d[i][j], ext.kernel)
            e = q_of(ext, gword) * ExtElement(ext, RHO_PRIME, "", aprime)
            if not in_E(e):
                raise LiftVerificationFailed(
                    f"cell ({i},{j}) lift leaves the embedded copy of E"
                )
            if sym in tri.constants and e != iota2(tri.constants[sym]):
                raise LiftVerificationFailed(
                    f"constant {sym!r} does not lift to itself in row {i}"
                )
            if sym in per_sym and per_sym[sym] != e:
                raise LiftVerificationFailed(
                    f"symbol {sym!r} lifts inconsistently across cells"
                )
            per_sym[sym] = e
            row_elts.append(e)
            transcript.append(
                {
                    "row": i,
                    "cell": j,
                    "symbol": sym,
                    "g": e.g,
                    "a": list(e.a.coords()),
                }
            )
        prod = row_elts[0] * row_elts[1] * row_elts[2]
        if not prod.is_identity():
            raise LiftVerificationFailed(f"row {i} product is not the identity")
    assignment = {}
    for x in tri.source.variables:
        if x in per_sym:
            assignment[x] = iota2_inverse(per_sym[x])
        else:
            assignment[x] = identity(ext)
    certificate = {
        "t": t.to_jsonable(),
        "vsol": dict(vsol),
        "wsol": {k: list(v.coords()) for k, v in wsol.items()},
        "cells": transcript,
        "assignment": {
            x: {"g": e.g, "a": list(e.a.coords())} for x, e in assignment.items()
        },
    }
    return LiftOutcome(assignment, per_sym, certificate)


# -- the end-to-end driver ----------------------------------------------


@dataclass
class SolveConfig:
    oracle_bound: int = 2
    mode: str = "sound"
    theta_cap: int = 1000
    gamma_hints: tuple = ()

    def __post_init__(self):
        if self.mode not in ("sound", "finite-complete"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.oracle_bound < 0 or self.theta_cap < 0:
            raise ValueError("bounds must be >= 0")


@dataclass
class SolveOutcome:
    status: str
    assignment: Optional[dict[str, ExtElement]] = None
    certificate: Optional[dict] = None
    report: Optional[dict] = None


@dataclass
class Pipeline:
    """The built automaton stack, the one handle every solve and every
    per-tuple step reads: F, the validated q-left family, whose live
    states are L; the PPA D over the rho-left and reversed families; the
    cocycle tables their validation walk read, over the ball it walked;
    and kappa2, the bound on the c-words of Theta.  The extension is
    F's."""

    F: PredictorFamily
    D: PPA
    cocycles: BallCocycles
    kappa2: int

    def __post_init__(self):
        if self.kappa2 < 0:
            raise ValueError("kappa2 must be >= 0")

    @property
    def ext(self) -> CentralExtension:
        return self.F.ext

    @property
    def ball(self) -> CayleyBall:
        return self.cocycles.ball

    @classmethod
    def build(
        cls,
        ext: CentralExtension,
        kappa2: int,
        R_learn: int = 4,
        R_validate: int = 6,
        ball_radius: Optional[int] = None,
    ) -> "Pipeline":
        """Build and validate the stack over the bundled language choice
        (instances.default_language_spec) on one ball of radius
        max(R_validate, ball_radius, 1, each live state's representative's
        length).  R_learn is accepted and ignored: synthesis always closes
        the signature space.  A ball over its cap names the representative
        that sized it, when one did."""
        from .instances import default_language_spec

        lspec = default_language_spec(ext.base)
        graph, reps = lspec.graph
        rep = max((reps[s] for s in sorted(graph.accepting)), key=len)
        radius = max(R_validate, ball_radius or 0, 1)
        try:
            ball = build_ball(ext.base, max(radius, len(rep)))
        except ResourceBound as e:
            if len(rep) <= radius:
                raise
            why = f"radius {len(rep)} from live representative {rep!r}"
            raise ResourceBound(f"{e}: {why}, beyond R_validate = {R_validate}") from e
        cocycles = BallCocycles(ext, ball)
        fams = build_automata(ext, lspec, R_validate, cocycles)
        D = build_ppa(fams[RHO_LEFT], fams[RHO_RIGHT_REVERSED])
        return cls(fams[Q_LEFT], D, cocycles, kappa2)


def finite_diameter(ball: CayleyBall) -> Optional[int]:
    """The group diameter if the ball is closed (hence the whole finite
    group), else None."""
    for row in ball.edges:
        if None in row:
            return None
    return max(ball.distances)


def solve(
    sys: EquationSystem, pipe: Pipeline, config: Optional[SolveConfig] = None
) -> SolveOutcome:
    """Drive triangularize -> project -> index tuples -> (V_t, W_t) ->
    V-solution -> lift.

    Sound mode scans hint-derived witness tuples, then the generic Theta
    stream up to the cap; every Solved outcome carries a certificate
    whose lift was verified by direct multiplication.  Finite-complete
    mode (finite base group, kappa2 at least the diameter, both checked
    before any witness is tried) goes on from the hints to every
    base-group solution, through its witness tuple, which is a proof of
    Unsolvable when none admits a solvable W_t.  A witness tuple's
    V-solution is witness_theta's (p = 1, v = nf(g)), used once V_t
    accepts it; one that V_t rejects is an anomaly, so the verdict
    cannot read Unsolvable.  The bounded oracle searches only the Theta
    stream's tuples."""
    config = config or SolveConfig()
    ext, F, ball = pipe.ext, pipe.F, pipe.ball
    base = ext.base
    finite = config.mode == "finite-complete"
    if finite:
        diam = finite_diameter(ball)
        if diam is None:
            raise ValueError(
                "finite-complete mode needs a finite base group (closed ball)"
            )
        if pipe.kappa2 < diam:
            raise ValueError(
                f"finite-complete mode needs kappa2 >= diameter {diam}"
            )
    tri = triangularize(sys, identity(ext))
    report: dict = {
        "mode": config.mode,
        "thetas_tried": 0,
        "w_unsolvable": 0,
        "oracle_exhausted": 0,
        "obstructions": [],
        "anomalies": [],
    }

    def attempt(t: ThetaIndex, vsol_hint=None) -> Optional[SolveOutcome]:
        report["thetas_tried"] += 1
        W = build_Wt(t, tri, F)
        wsol = W.solve()
        if wsol is None:
            report["w_unsolvable"] += 1
            ob = W.obstruction()
            if ob is not None and ob not in report["obstructions"]:
                if len(report["obstructions"]) < 20:
                    report["obstructions"].append(ob)
            return None
        V = build_Vt(t, tri, pipe)
        if vsol_hint is not None:
            if not V.check(vsol_hint):
                report["anomalies"].append("witness solution rejected by V_t")
                return None
            vsol = vsol_hint
        else:
            res = vf_oracle_solve(V, max(config.oracle_bound, pipe.kappa2))
            if not res.found:
                report["oracle_exhausted"] += 1
                return None
            vsol = res.assignment
        lemma = check_constraint_lemma(V, vsol)
        if not lemma.passed:
            raise LiftVerificationFailed(
                f"constraint lemma violated at {lemma.failures[:3]}"
            )
        report["lemma_cells_checked"] = (
            report.get("lemma_cells_checked", 0) + 3 * len(tri.rows)
        )
        lift = lift_solution(V, W, vsol, wsol)
        if not check_in_extension(sys, ext, lift.assignment):
            raise LiftVerificationFailed(
                "lifted assignment fails the source system"
            )
        certificate = dict(lift.certificate)
        certificate["report"] = report
        return SolveOutcome(SOLVED, lift.assignment, certificate, report)

    nsol = 0

    def base_solutions():
        # the hints, then in finite-complete mode every solution over the
        # ball, nsol counting the latter
        nonlocal nsol
        for gamma in config.gamma_hints:
            gnf = {v: normal_form(base, w) for v, w in gamma.items()}
            if set(gnf) == set(sys.variables) and check_in_base(sys, base, gnf):
                yield gnf
            else:
                report["anomalies"].append(
                    f"hint {gamma} does not solve the base system"
                )
        if finite:
            for combo in itertools.product(ball.words, repeat=len(sys.variables)):
                gamma = dict(zip(sys.variables, combo))
                if check_in_base(sys, base, gamma):
                    nsol += 1
                    yield gamma

    for gamma in base_solutions():
        t, vsol = witness_theta(tri, pipe, extend_to_fresh(tri, base, gamma))
        out = attempt(t, vsol)
        if out is not None:
            return out

    if finite:
        report["gamma_solutions"] = nsol
        if report["anomalies"]:
            return SolveOutcome(NO_SOLUTION_WITHIN_BOUNDS, report=report)
        return SolveOutcome(
            UNSOLVABLE,
            certificate={"report": report, "diameter": diam},
            report=report,
        )

    if config.gamma_hints:
        # hints scope the search to their witness tuples; the generic
        # stream would re-test unrelated decompositions at a kappa2
        # chosen for the hints, not for blind enumeration
        report["theta_truncated"] = False
        return SolveOutcome(NO_SOLUTION_WITHIN_BOUNDS, report=report)

    stream = enumerate_theta(tri, pipe)
    truncated = False
    try:
        for t in itertools.islice(stream, config.theta_cap):
            out = attempt(t)
            if out is not None:
                return out
        if next(stream, None) is not None:
            truncated = True
    except ResourceBound:
        truncated = True
    report["theta_truncated"] = truncated
    return SolveOutcome(NO_SOLUTION_WITHIN_BOUNDS, report=report)
