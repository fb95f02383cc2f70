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
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from .abelian import (
    AbelianLinearSystem,
    FGAElement,
    ParityElement,
    iota1,
    iota1_inverse,
    iota4,
    pa,
    parity_elements,
    smith_normal_form,
    solve_linear_system,
)
from .automata import FSA, words_up_to
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
    FPA,
    PPA,
    fpa_branch,
    is_compatible,
    ppa_branch,
    sigma_q_of_state,
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
    whitespace); constants map symbol names to group elements of
    whichever group the system lives over (ExtElement for E, normal-form
    words for the base group).
    """

    variables: tuple[str, ...]
    constants: dict = field(compare=False)
    equations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "equations", tuple(_normalize_equation(e) for e in self.equations)
        )
        declared = set(self.variables) | set(self.constants)
        overlap = set(self.variables) & set(self.constants)
        if overlap:
            raise ValueError(f"symbols both variable and constant: {sorted(overlap)}")
        for name in declared:
            if not name or name[0].isupper():
                raise ValueError(f"declared symbol may not start uppercase: {name!r}")
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


def _invert_constant(value):
    if isinstance(value, ExtElement):
        return value.inverse()
    raise TypeError(
        "triangularize needs extension-element constants; "
        f"got {type(value).__name__}"
    )


def triangularize(
    sys: EquationSystem, identity_element: Optional[ExtElement] = None
) -> TriangularSystem:
    """Rewrite every equation into rows of exactly three plain symbols.

    Long equations are split with fresh product variables; because rows
    carry no inverse tokens, each fresh product comes with an inverse
    copy and a linking row (t, t', 1) = 1, and likewise each variable
    that occurs inverted.  Short rows are padded with the identity
    constant.  Solution sets biject: forget the fresh variables one way,
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
                constants[name] = _invert_constant(constants[base])
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
        if identity_element is None:
            for value in constants.values():
                identity_element = identity(value.ext)
                break
        if identity_element is None:
            raise ValueError("padding needs an identity constant; none derivable")
        constants[IDENTITY] = identity_element
    return TriangularSystem(
        source=sys,
        variables=tuple(variables),
        fresh=tuple(fresh),
        fresh_defs=tuple(fresh_defs),
        constants=constants,
        rows=tuple(rows),
    )


def project_to_base(sys):
    """Replace extension-element constants by base normal forms."""
    newconsts = {
        name: normal_form(e.ext.base, e.g) for name, e in sys.constants.items()
    }
    return replace(sys, constants=newconsts)


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
    """Normal-form check of every equation in the base group."""
    values = {**sys.constants, **assignment}
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
    gconsts = {
        name: normal_form(e.ext.base, e.g) for name, e in tri.constants.items()
    }
    values = {**gconsts, **{v: normal_form(p, w) for v, w in gamma.items()}}
    for name, toks in tri.fresh_defs:
        w = "".join(
            _resolve_token(tok, values, p.alphabet.inverse_word) for tok in toks
        )
        values[name] = normal_form(p, w)
    return {v: values[v] for v in tri.variables if v in values}


# -- the V-group context ------------------------------------------------


@dataclass(frozen=True)
class VGroupContext:
    """The free group on the base generators, in which V_t is solved.

    Group arithmetic is free reduction over base.alphabet; a V-word's
    base-group element is its normal form.  kappa2 bounds the c-words of
    Theta.
    """

    base: Presentation
    kappa2: int

    def __post_init__(self):
        if self.kappa2 < 0:
            raise ValueError("kappa2 must be >= 0")

    def reduce(self, w: Word) -> Word:
        return self.base.alphabet.free_reduce(w)

    def inverse(self, w: Word) -> Word:
        return self.base.alphabet.inverse_word(w)


# -- Theta --------------------------------------------------------------


@dataclass(frozen=True)
class ThetaIndex:
    """One index tuple (c, sbar, b, d) with the derived end states and
    cocycle constants a = sigma_q(sbar, c)."""

    c: tuple[tuple[Word, Word, Word], ...]
    s: tuple[tuple[int, int, int], ...]
    b: tuple[tuple[FGAElement, ...], ...]
    d: tuple[tuple[ParityElement, ...], ...]
    s_prime: tuple[tuple[int, int, int], ...]
    a: tuple[tuple[FGAElement, ...], ...]

    def to_jsonable(self):
        return {
            "c": [list(row) for row in self.c],
            "s": [list(row) for row in self.s],
            "b": [[list(x.coords()) for x in row] for row in self.b],
            "d": [[list(x.bits) + list(x.tors) for x in row] for row in self.d],
        }


def make_theta(F: FPA, c, s, b, d) -> ThetaIndex:
    sp = []
    a = []
    for i in range(len(c)):
        sp_row = []
        a_row = []
        for j in range(3):
            # sigma_q_of_state raises unless s̄ is in T and c compatible
            a_row.append(sigma_q_of_state(F, s[i][j], c[i][j]))
            sp_row.append(F.product.run(c[i][j], start=s[i][j]))
        sp.append(tuple(sp_row))
        a.append(tuple(a_row))
    return ThetaIndex(
        c=tuple(tuple(row) for row in c),
        s=tuple(tuple(row) for row in s),
        b=tuple(tuple(row) for row in b),
        d=tuple(tuple(row) for row in d),
        s_prime=tuple(sp),
        a=tuple(a),
    )


def _constant_base_word(value, base: Presentation) -> Word:
    if isinstance(value, ExtElement):
        return normal_form(base, value.g)
    return normal_form(base, value)


def enumerate_theta(
    tri: TriangularSystem,
    ctx: VGroupContext,
    F: FPA,
    D: PPA,
    ext: CentralExtension,
    prune_constants: bool = False,
    cap: Optional[int] = None,
):
    """Deterministic stream of every tuple satisfying the four Theta
    conditions, with one identification rule: cells sharing an equation
    symbol share their parity datum d (the parity of a cell is a
    function of the cell's group element, so differing choices leave
    V_t unsatisfiable).

    With prune_constants, constant cells are further pinned to their
    element's true parity for the same reason.  Raises ResourceBound
    after cap tuples have been yielded.
    """
    base = ctx.base
    n = len(tri.rows)
    words = [
        w
        for w in words_up_to(base.alphabet, ctx.kappa2)
        if base.alphabet.is_freely_reduced(w)
    ]
    bucket: dict[Word, list[Word]] = {}
    for w in words:
        bucket.setdefault(normal_form(base, w), []).append(w)

    def gen_c_rows():
        # third component bucketed by its base-group value, so only
        # triples with trivial row product are ever formed
        for c1, c2 in itertools.product(words, repeat=2):
            g12 = normal_form(base, c1 + c2)
            for c3 in bucket.get(normal_form(base, base.alphabet.inverse_word(g12)), ()):
                yield (c1, c2, c3)

    if n == 1:
        # itertools.product would drain the generator up front
        c_mats = ((row,) for row in gen_c_rows())
    else:
        c_mats = itertools.product(list(gen_c_rows()), repeat=n)
    T = sorted(F.T)
    d_values = list(parity_elements(ext.kernel))
    syms = tri.row_symbols()
    pinned: dict[str, ParityElement] = {}
    if prune_constants:
        for sym in syms:
            if sym in tri.constants:
                g = _constant_base_word(tri.constants[sym], base)
                pinned[sym] = pa(sigma_rho(ext, g, base.alphabet.inverse_word(g)))
    count = 0
    for c_mat in c_mats:
        s_opts = []
        viable = True
        for i in range(n):
            for j in range(3):
                opts = [sb for sb in T if is_compatible(F, sb, c_mat[i][j])]
                if not opts:
                    viable = False
                    break
                s_opts.append(opts)
            if not viable:
                break
        if not viable:
            continue
        for s_flat in itertools.product(*s_opts):
            b_opts = [
                _accumulator(F, s_flat[k], c_mat[k // 3][k % 3], cap=None).values
                for k in range(3 * n)
            ]
            s_mat = tuple(
                tuple(s_flat[3 * i : 3 * i + 3]) for i in range(n)
            )
            for b_flat in itertools.product(*b_opts):
                b_mat = tuple(
                    tuple(b_flat[3 * i : 3 * i + 3]) for i in range(n)
                )
                d_opts = [
                    (pinned[sym],) if sym in pinned else d_values for sym in syms
                ]
                for d_choice in itertools.product(*d_opts):
                    dmap = dict(zip(syms, d_choice))
                    d_mat = tuple(
                        tuple(dmap[sym] for sym in row) for row in tri.rows
                    )
                    yield make_theta(F, c_mat, s_mat, b_mat, d_mat)
                    count += 1
                    if cap is not None and count >= cap:
                        raise ResourceBound(f"theta stream exceeded cap {cap}")


def witness_theta(
    tri: TriangularSystem,
    ctx: VGroupContext,
    F: FPA,
    D: PPA,
    ext: CentralExtension,
    gamma: dict[str, Word],
) -> tuple[ThetaIndex, dict[str, Word]]:
    """The index tuple read off a base-group solution with the trivial
    tripod decomposition p = 1, c = nf(g), plus the matching V-solution.

    With that decomposition every sbar is the initial state and every a
    and b vanishes; d is the parity of each cell's element.
    """
    base = ctx.base
    init = F.product.initial
    if init not in F.T:
        raise NotAcceptingState("initial state not accepting; empty word not in L")
    zero_b = ext.pushout_kernel.zero()
    c_rows, d_rows = [], []
    vsol: dict[str, Word] = {}
    for i, row in enumerate(tri.rows):
        cs, ds = [], []
        for j, sym in enumerate(row):
            if sym in tri.constants:
                g = _constant_base_word(tri.constants[sym], base)
            else:
                g = normal_form(base, gamma[sym])
            if len(g) > ctx.kappa2:
                raise ResourceBound(
                    f"kappa2={ctx.kappa2} too small for witness word {g!r}"
                )
            if not F.product.accepts(g):
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
    t = make_theta(
        F,
        c_rows,
        [(init,) * 3] * n,
        [(zero_b,) * 3] * n,
        d_rows,
    )
    return t, vsol


# -- the A sets and their level automata --------------------------------


class _AbGraph(NamedTuple):
    sprime: int
    states: tuple
    rows: tuple
    values: tuple  # the A-set, sorted by coordinates


def _ab_graph(F: FPA, sprime: int, cap: int) -> _AbGraph:
    """BFS graph over (state-from-s', state-from-initial, accumulator)
    triples; the accumulator is the chain-rule value sigma_q(s', w)."""
    letters = F.product.alphabet.letters
    zero = F.ext.pushout_kernel.zero()
    start = (sprime, F.product.initial, zero)
    states: list[Optional[tuple]] = [start, None]
    index = {start: 0}
    rows: list[list[int]] = [[], [1] * len(letters)]
    values = set()
    queue = deque([0])
    while queue:
        i = queue.popleft()
        cur, icur, acc = states[i]
        if cur in F.product.accepting:
            values.add(acc)
        dead = cur not in F.T or icur not in F.T
        row = []
        for x in letters:
            if dead:
                row.append(1)
                continue
            acc2 = acc + F.a_of(cur, x) - F.a_of(icur, x)
            nxt = (F.product.step(cur, x), F.product.step(icur, x), acc2)
            j = index.get(nxt)
            if j is None:
                if len(states) >= cap:
                    raise AccumulatorBound(
                        f"accumulator graph exceeds cap {cap}"
                    )
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                rows.append([])
                queue.append(j)
            row.append(j)
        rows[i] = row
    return _AbGraph(
        sprime,
        tuple(states),
        tuple(tuple(r) for r in rows),
        tuple(sorted(values, key=lambda a: a.coords())),
    )


def _accumulator(F: FPA, sbar: int, c: Word, cap: Optional[int]) -> _AbGraph:
    """The accumulator graph of s' = c read from sbar, built on the first
    call for that s' and kept on F; a kept graph larger than the cap in
    force now raises as building it would."""
    if sbar not in F.T:
        raise NotAcceptingState(f"state {sbar} not in T")
    sprime = F.product.run(c, start=sbar)
    if sprime not in F.product.accepting:
        raise Incompatible(f"{c!r} not compatible with state {sbar}")
    cap = cap if cap is not None else state_cap()
    graph = F.memo.get(("ab", sprime))
    if graph is None:
        graph = F.memo[("ab", sprime)] = _ab_graph(F, sprime, cap)
    elif len(graph.states) > max(cap, 2):
        raise AccumulatorBound(f"accumulator graph exceeds cap {cap}")
    return graph


def build_Lb_automaton(
    F: FPA, sbar: int, c: Word, b: FGAElement, cap: Optional[int] = None
) -> FSA:
    """DFA for L(b) = {w compatible with s' : sigma_q(s', w) = b}, kept
    on F by (s', b)."""
    graph = _accumulator(F, sbar, c, cap)
    Lb = F.memo.get(("Lb", graph.sprime, b))
    if Lb is None:
        if b not in graph.values:
            raise ValueNotInASet(f"{b.coords()} not in A(sbar={sbar}, c={c!r})")
        accepting = frozenset(
            i
            for i, st in enumerate(graph.states)
            if st is not None and st[0] in F.product.accepting and st[2] == b
        )
        Lb = F.memo[("Lb", graph.sprime, b)] = FSA(
            F.product.alphabet, graph.rows, 0, accepting
        )
    return Lb


def build_Le_automaton(
    F: FPA, ext: CentralExtension, g: Word, ball: CayleyBall
) -> FSA:
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
    gnf = normal_form(ext.base, g)
    nu = F.fam.lspec.nu
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
            for j in ball.edges[i].values():
                if j is not None and j not in within and dist[j] + depth <= slack:
                    within.add(j)
                    nxt.append(j)
        frontier = nxt
    letters = F.product.alphabet.letters
    start = (F.product.initial, 0)
    states: list[Optional[tuple[int, int]]] = [start, None]
    index = {start: 0}
    rows: list[list[int]] = [[], [1] * len(letters)]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        fs, ei = states[i]
        row = []
        for x in letters:
            e2 = ball.edges[ei].get(x)
            if e2 not in within:
                row.append(1)
                continue
            nxt = (F.product.step(fs, x), e2)
            j = index.get(nxt)
            if j is None:
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                rows.append([])
                queue.append(j)
            row.append(j)
        rows[i] = row
    accepting = frozenset(
        i
        for i, st in enumerate(states)
        if st is not None and st[0] in F.product.accepting and st[1] == target
    )
    Le = FSA(F.product.alphabet, tuple(tuple(r) for r in rows), 0, accepting)
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
    and solve of the same pipeline.  Cells sharing an equation symbol
    share their v variable; all p variables are distinct.
    """

    t: ThetaIndex
    tri: TriangularSystem
    ctx: VGroupContext
    ext: CentralExtension
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
        for fsa, inverted in self.constraints.get(name, ()):
            probe = self.ctx.inverse(word) if inverted else word
            if not fsa.accepts(probe):
                return False
        return True

    def check(self, assignment: dict[str, Word], explain: bool = False):
        failures = []
        for i in range(len(self.tri.rows)):
            for j in range(3):
                lhs = self.ctx.reduce(
                    assignment[self.p_names[i][j]]
                    + self.t.c[i][j]
                    + self.ctx.inverse(assignment[self.p_names[i][(j + 1) % 3]])
                )
                if lhs != self.ctx.reduce(assignment[self.v_names[i][j]]):
                    failures.append(("equation", i, j))
        for name in self.variables():
            if not self._constraint_ok(name, assignment[name]):
                failures.append(("constraint", name))
        return failures if explain else not failures


def build_Vt(
    t: ThetaIndex,
    tri: TriangularSystem,
    ctx: VGroupContext,
    F: FPA,
    D: PPA,
    ext: CentralExtension,
    ball: CayleyBall,
    cap: Optional[int] = None,
) -> VSystem:
    """Attach all four constraint families of the index tuple:
    p in L(sbar), p_next^-1 in L(b), v in L(d), and v in L(e).

    Each automaton is built on its first use and kept on F or D, so the
    index tuples and solves of one pipeline share it; it is immutable.
    """
    constraints: dict[str, list] = {}

    def add(name, fsa, inverted=False):
        constraints.setdefault(name, []).append((fsa, inverted))

    L_full = F.product
    p_names = []
    v_names = []
    for i, row in enumerate(tri.rows):
        p_names.append(tuple(_p_name(i, j) for j in range(3)))
        v_names.append(tuple(_v_name(sym) for sym in row))
        for j, sym in enumerate(row):
            add(_p_name(i, j), fpa_branch(F, t.s[i][j]))
            Lb = build_Lb_automaton(F, t.s[i][j], t.c[i][j], t.b[i][j], cap=cap)
            add(_p_name(i, (j + 1) % 3), Lb, inverted=True)
            add(_v_name(sym), ppa_branch(D, t.d[i][j]))
            if sym in tri.constants:
                g = _constant_base_word(tri.constants[sym], ctx.base)
                add(_v_name(sym), build_Le_automaton(F, ext, g, ball))
            else:
                add(_v_name(sym), L_full)
    return VSystem(
        t=t,
        tri=tri,
        ctx=ctx,
        ext=ext,
        p_names=tuple(p_names),
        v_names=tuple(v_names),
        constraints={k: tuple(v) for k, v in constraints.items()},
    )


@dataclass
class WSystem:
    """Abelian linear system over the kernel, or the distinguished
    no-solution marker when some iota1-preimage does not exist."""

    system: Optional[AbelianLinearSystem]
    constant_values: dict[str, FGAElement]
    no_solution: Optional[str] = None

    def solve(self) -> Optional[dict[str, FGAElement]]:
        if self.no_solution is not None:
            return None
        return solve_linear_system(self.system)

    def obstruction(self) -> Optional[dict]:
        """A certificate of unsolvability: an integer combination of
        equations with zero variable part and nonzero value (reported
        with the value normalized negative), or a divisibility failure
        on a torsion coordinate."""
        if self.no_solution is not None:
            return {"reason": self.no_solution}
        g = self.system.group
        nvars = len(self.system.variables)
        var_index = {v: i for i, v in enumerate(self.system.variables)}
        neq = len(self.system.equations)
        for coord in range(g.rank + len(g.torsion)):
            torsion_d = None if coord < g.rank else g.torsion[coord - g.rank]
            ncols = nvars + (neq if torsion_d else 0)
            M, bvec = [], []
            for e, (coeffs, rhs) in enumerate(self.system.equations):
                row = [0] * ncols
                for v, k in coeffs.items():
                    row[var_index[v]] = k
                if torsion_d:
                    row[nvars + e] = torsion_d
                M.append(row)
                bvec.append(rhs.coords()[coord])
            if not M:
                continue
            U, Dg, _ = smith_normal_form(M)
            c = [sum(U[i][k] * bvec[k] for k in range(neq)) for i in range(neq)]
            for i in range(neq):
                dd = Dg[i][i] if i < ncols else 0
                if dd == 0 and c[i] != 0:
                    combo, value = U[i], c[i]
                    if value > 0:
                        combo, value = [-x for x in combo], -value
                    return {
                        "coordinate": coord,
                        "combination": list(combo),
                        "value": value,
                        "modulus": None,
                    }
                if dd != 0 and c[i] % dd:
                    return {
                        "coordinate": coord,
                        "combination": list(U[i]),
                        "value": c[i],
                        "modulus": dd,
                    }
        return None


def build_Wt(t: ThetaIndex, tri: TriangularSystem, ext: CentralExtension) -> WSystem:
    """One kernel equation per row: the w-variables of the row sum to
    iota1^-1(sum(a + b + iota4(d)) - sigma_q(pi(c1), pi(c2))), with
    constant cells contributing iota1^-1(iota2(e) q(p(e))^-1 iota4(d))
    moved to the right-hand side.  Any missing iota1-preimage makes the
    whole system the no-solution marker."""
    A = ext.kernel
    d_of: dict[str, ParityElement] = {}
    for i, j, sym in tri.cells():
        if sym in d_of and d_of[sym] != t.d[i][j]:
            return WSystem(None, {}, f"conflicting parity data for {sym!r}")
        d_of[sym] = t.d[i][j]
    constant_values: dict[str, FGAElement] = {}
    for sym, d in d_of.items():
        if sym not in tri.constants:
            continue
        e = tri.constants[sym]
        central = iota2(e) * q_of(ext, e.g).inverse()
        if central.g != "":
            raise LiftVerificationFailed(
                f"constant {sym!r} drifted off the section"
            )
        try:
            constant_values[sym] = iota1_inverse(central.a + iota4(d))
        except NotInImage:
            return WSystem(
                None, {}, f"constant {sym!r} has no kernel preimage"
            )
    var_syms = [s for s in tri.row_symbols() if s not in tri.constants]
    system = AbelianLinearSystem(A, tuple(_w_name(s) for s in var_syms))
    for i, row in enumerate(tri.rows):
        total = ext.pushout_kernel.zero()
        for j in range(3):
            total = total + t.a[i][j] + t.b[i][j] + iota4(t.d[i][j])
        total = total - sigma_q(ext, t.c[i][0], t.c[i][1])
        try:
            rhs = iota1_inverse(total)
        except NotInImage:
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


def vf_oracle_solve(V: VSystem, bound: int) -> OracleOutcome:
    """Bounded brute force: p-variables range over constrained words of
    length <= bound, v-words are derived from the tripod equations (so
    may be up to 2*bound + kappa2 long), and constraint membership is
    tested on the searched words themselves.  Deterministic shortlex
    order; exhaustion is not a nonexistence proof."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    candidates = list(words_up_to(V.ctx.base.alphabet, bound))
    domains = {}
    for names in V.p_names:
        for name in names:
            domains[name] = [w for w in candidates if V._constraint_ok(name, w)]
    v_assign: dict[str, Word] = {}
    p_assign: dict[str, Word] = {}

    def fill_row(i: int) -> bool:
        if i == len(V.tri.rows):
            return True
        pn = V.p_names[i]
        for trip in itertools.product(
            domains[pn[0]], domains[pn[1]], domains[pn[2]]
        ):
            added = []
            ok = True
            for j in range(3):
                w = V.ctx.reduce(
                    trip[j] + V.t.c[i][j] + V.ctx.inverse(trip[(j + 1) % 3])
                )
                name = V.v_names[i][j]
                if name in v_assign:
                    if v_assign[name] != w:
                        ok = False
                        break
                elif V._constraint_ok(name, w):
                    v_assign[name] = w
                    added.append(name)
                else:
                    ok = False
                    break
            if ok:
                for j in range(3):
                    p_assign[pn[j]] = trip[j]
                if fill_row(i + 1):
                    return True
            for name in added:
                del v_assign[name]
        return False

    if fill_row(0):
        return OracleOutcome(FOUND, {**p_assign, **v_assign})
    return OracleOutcome(EXHAUSTED_BOUND)


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
    ext, t = V.ext, V.t
    base = V.ctx.base
    failures = []
    for i, row in enumerate(V.tri.rows):
        for j, sym in enumerate(row):
            pw = vsol[V.p_names[i][j]]
            pnext = vsol[V.p_names[i][(j + 1) % 3]]
            cw = t.c[i][j]
            vw = vsol[V.v_names[i][j]]
            if sigma_q(ext, pw, cw) != t.a[i][j]:
                failures.append((1, i, j))
            if sigma_q(ext, pw + cw, base.alphabet.inverse_word(pnext)) != t.b[i][j]:
                failures.append((2, i, j))
            if pa(sigma_rho(ext, vw, base.alphabet.inverse_word(vw))) != t.d[i][j]:
                failures.append((3, i, j))
            if sym in V.tri.constants:
                g = _constant_base_word(V.tri.constants[sym], base)
                if normal_form(base, vw) != g:
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
    ext, ctx, t, tri = V.ext, V.ctx, V.t, V.tri
    per_sym: dict[str, ExtElement] = {}
    transcript = []
    for i, row in enumerate(tri.rows):
        row_elts = []
        for j, sym in enumerate(row):
            gword = normal_form(ctx.base, vsol[V.v_names[i][j]])
            if sym in tri.constants:
                wval = W.constant_values[sym]
            else:
                wval = wsol[_w_name(sym)]
            aprime = iota1(wval) - iota4(t.d[i][j])
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
    """The built automaton stack a solve run needs."""

    ext: CentralExtension
    ctx: VGroupContext
    L: FSA
    F: FPA
    D: PPA
    ball: CayleyBall

    @classmethod
    def build(
        cls,
        ext: CentralExtension,
        kappa2: int,
        R_learn: int = 4,
        R_validate: int = 6,
        ball_radius: Optional[int] = None,
        lspec=None,
        cap: Optional[int] = None,
    ) -> "Pipeline":
        from .fpa_ppa import build_fpa, build_lfpa, build_ppa, build_rfpa
        from .instances import default_language_spec
        from .lrational import Q_LEFT, RHO_LEFT, RHO_RIGHT_REVERSED, build_automata

        lspec = lspec or default_language_spec(ext.base)
        radius = max(R_validate, ball_radius or 0)
        ball = build_ball(ext.base, radius, cap=cap)
        L, fams = build_automata(ext, lspec, R_learn, R_validate, ball=ball, cap=cap)
        F = build_fpa(fams[Q_LEFT], cap=cap)
        D = build_ppa(
            build_lfpa(fams[RHO_LEFT], cap=cap),
            build_rfpa(fams[RHO_RIGHT_REVERSED], cap=cap),
            ext,
            cap=cap,
        )
        return cls(ext, VGroupContext(ext.base, kappa2), L, F, D, ball)


def finite_diameter(ball: CayleyBall) -> Optional[int]:
    """The group diameter if the ball is closed (hence the whole finite
    group), else None."""
    for edges in ball.edges:
        if any(t is None for t in edges.values()):
            return None
    return max(ball.distances)


def solve(
    sys: EquationSystem, pipe: Pipeline, config: Optional[SolveConfig] = None
) -> SolveOutcome:
    """Drive triangularize -> project -> index tuples -> (V_t, W_t) ->
    oracle -> lift.

    Sound mode scans hint-derived witness tuples, then the generic Theta
    stream up to the cap; every Solved outcome carries a certificate
    whose lift was verified by direct multiplication.  Finite-complete
    mode (finite base group, kappa2 and oracle bound at least the
    diameter) exhausts base-group solutions through their witness
    tuples, which is a proof of Unsolvable when none admits a solvable
    W_t."""
    config = config or SolveConfig()
    ext, ctx, F, D, ball = pipe.ext, pipe.ctx, pipe.F, pipe.D, pipe.ball
    tri = triangularize(sys, identity(ext))
    gsys = project_to_base(sys)
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
        W = build_Wt(t, tri, ext)
        wsol = W.solve()
        if wsol is None:
            report["w_unsolvable"] += 1
            ob = W.obstruction()
            if ob is not None and ob not in report["obstructions"]:
                if len(report["obstructions"]) < 20:
                    report["obstructions"].append(ob)
            return None
        V = build_Vt(t, tri, ctx, F, D, ext, ball)
        if vsol_hint is not None and config.mode != "finite-complete":
            if not V.check(vsol_hint):
                report["anomalies"].append("witness solution rejected by V_t")
                return None
            vsol = vsol_hint
        else:
            res = vf_oracle_solve(V, max(config.oracle_bound, ctx.kappa2))
            if not res.found:
                if vsol_hint is not None and V.check(vsol_hint):
                    report["anomalies"].append("oracle missed the witness solution")
                    vsol = vsol_hint
                else:
                    report["oracle_exhausted"] += 1
                    return None
            else:
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

    for gamma in config.gamma_hints:
        gnf = {v: normal_form(ext.base, w) for v, w in gamma.items()}
        if set(gnf) != set(sys.variables) or not check_in_base(gsys, ext.base, gnf):
            report["anomalies"].append(f"hint {gamma} does not solve the base system")
            continue
        gfull = extend_to_fresh(tri, ext.base, gnf)
        t, vsol = witness_theta(tri, ctx, F, D, ext, gfull)
        out = attempt(t, vsol)
        if out is not None:
            return out

    if config.mode == "finite-complete":
        diam = finite_diameter(ball)
        if diam is None:
            raise ValueError(
                "finite-complete mode needs a finite base group (closed ball)"
            )
        if ctx.kappa2 < diam:
            raise ValueError(
                f"finite-complete mode needs kappa2 >= diameter {diam}"
            )
        if config.oracle_bound < diam:
            raise ValueError(
                f"finite-complete mode needs oracle_bound >= diameter {diam}"
            )
        nsol = 0
        for combo in itertools.product(ball.words, repeat=len(sys.variables)):
            gamma = dict(zip(sys.variables, combo))
            if not check_in_base(gsys, ext.base, gamma):
                continue
            nsol += 1
            gfull = extend_to_fresh(tri, ext.base, gamma)
            t, vsol = witness_theta(tri, ctx, F, D, ext, gfull)
            out = attempt(t, vsol)
            if out is not None:
                return out
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

    stream = enumerate_theta(tri, ctx, F, D, ext, prune_constants=True)
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
