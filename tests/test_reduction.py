import gc
import itertools
import weakref
from collections import deque
from dataclasses import replace

import pytest

from exteq import reduction, words
from exteq.abelian import iota1_inverse, iota4, pa
from conftest import enumerate_language, language_equal, shortest_witness
from exteq.automata import FSA, words_up_to
from exteq.errors import (
    AccumulatorBound,
    BallTooSmall,
    EmptyEquation,
    Incompatible,
    LiftVerificationFailed,
    NotAcceptingState,
    ResourceBound,
    ValueNotInASet,
)
from exteq.extension import (
    RHO,
    BallCocycles,
    ExtElement,
    identity,
    iota2,
    q_of,
    sigma_q,
    sigma_rho,
)
from exteq.fpa_ppa import (
    fpa_branch,
    is_compatible,
    ppa_branch,
    sigma_q_of_state,
)
from exteq.instances import (
    central_constant,
    letter_constant,
    quaternion8,
    t1s_commutator_system,
)
from exteq.reduction import (
    EquationSystem,
    Pipeline,
    SolveConfig,
    build_Lb_automaton,
    build_Le_automaton,
    build_Vt,
    build_Wt,
    check_constraint_lemma,
    check_in_base,
    check_in_extension,
    enumerate_theta,
    extend_to_fresh,
    finite_diameter,
    lift_solution,
    solve,
    triangularize,
    vf_oracle_solve,
    witness_theta,
)
from exteq.words import build_ball, normal_form


def test_pipeline_builds_one_cocycle_table(monkeypatch):
    built = []
    init = BallCocycles.__init__

    def counted(self, ext, ball):
        built.append(ball)
        init(self, ext, ball)

    monkeypatch.setattr(BallCocycles, "__init__", counted)
    pipe = Pipeline.build(quaternion8(), kappa2=2)
    assert len(built) == 1 and built[0] is pipe.ball


@pytest.fixture(scope="module")
def q8_pipe(q8_stack):
    s = q8_stack
    return Pipeline(F=s.fpa, D=s.ppa, cocycles=s.cocycles, kappa2=2)


def _q8_systems(ext):
    zero = ext.kernel.zero()
    one = ext.kernel.element([], [1])
    s = ExtElement(ext, RHO, "s", zero)
    z = ExtElement(ext, RHO, "", one)
    return s, z


# -- equation systems and triangularization -----------------------------


def test_equation_system_validation(q8_stack):
    s, _ = _q8_systems(q8_stack.ext)
    with pytest.raises(EmptyEquation):
        EquationSystem(("x",), {}, ("",))
    with pytest.raises(ValueError):
        EquationSystem(("x",), {}, ("x y",))
    with pytest.raises(ValueError):
        EquationSystem(("X",), {}, ())
    with pytest.raises(ValueError):
        EquationSystem(("x",), {"x": s}, ())
    # a constant is an element of E, never a bare base-group word
    with pytest.raises(ValueError, match="constant 'c' is not an extension element"):
        EquationSystem(("x",), {"c": "s"}, ("x C",))


def test_repeated_and_empty_names_rejected(q8_stack):
    # a repeated variable would make finite-complete mode enumerate
    # |E|^2 base assignments for one unknown
    s, _ = _q8_systems(q8_stack.ext)
    with pytest.raises(ValueError, match="variable 'x' declared twice"):
        EquationSystem(("x", "x"), {}, ("x",))
    with pytest.raises(ValueError, match="variable 'x' declared twice"):
        EquationSystem(("x", "y", "x"), {"c": s}, ("x y C",))
    for variables, constants in ((("",), {}), (("x",), {"": s})):
        with pytest.raises(ValueError, match="empty name"):
            EquationSystem(variables, constants, ("x",))


def test_declared_identity_symbol_rejected(q8_stack):
    # "1" is the identity token triangularize pads rows with
    s, _ = _q8_systems(q8_stack.ext)
    with pytest.raises(ValueError, match="'1' names the identity"):
        EquationSystem(("x",), {"1": s}, ("x",))
    with pytest.raises(ValueError, match="'1' names the identity"):
        EquationSystem(("1",), {}, ("1",))


def test_triangularize_short_rows_pad(q8_stack):
    ext = q8_stack.ext
    sys = EquationSystem(("x",), {}, ("x x",))
    tri = triangularize(sys, identity(ext))
    assert tri.rows == (("x", "x", "1"),)
    assert tri.constants["1"].is_identity()
    assert tri.fresh == ()


def test_triangularize_inverse_and_split(q8_stack):
    ext = q8_stack.ext
    s, _ = _q8_systems(ext)
    sys = EquationSystem(("x", "y"), {"c": s}, ("x C y X c",))
    tri = triangularize(sys, identity(ext))
    # no inverse tokens anywhere, all rows length 3
    for row in tri.rows:
        assert len(row) == 3
        for sym in row:
            assert sym == sym.lower() or sym in tri.constants
    # the inverse constant is s^-1 by direct multiplication
    assert (tri.constants["c.inv"] * s).is_identity()


def test_triangularize_preserves_solutions(q8_stack):
    # brute force over the finite extension: the source and triangular
    # systems have the same solution sets once fresh variables are
    # evaluated from their defining words
    ext = q8_stack.ext
    s, z = _q8_systems(ext)
    sys = EquationSystem(("x", "y"), {"c": z}, ("x y x C", "y y"))
    tri = triangularize(sys, identity(ext))
    elements = [
        ExtElement(ext, RHO, g, ext.kernel.element([], [k]))
        for g in q8_stack.ball.words
        for k in range(2)
    ]
    n_src, n_tri = 0, 0
    for xv, yv in itertools.product(elements, repeat=2):
        src_ok = check_in_extension(sys, ext, {"x": xv, "y": yv})
        values = {**tri.constants, "x": xv, "y": yv}
        for name, toks in tri.fresh_defs:
            acc = identity(ext)
            for tok in toks:
                base = tok.lower() if tok != tok.lower() else tok
                e = values[base]
                acc = acc * (e.inverse() if tok != base else e)
            values[name] = acc
        tri_ok = check_in_extension(tri, ext, values)
        assert src_ok == tri_ok, (xv.g, yv.g)
        n_src += src_ok
        n_tri += tri_ok
    assert n_src == n_tri > 0


def test_check_in_base_reads_constant_base_parts(q8_stack):
    ext = q8_stack.ext
    s, z = _q8_systems(ext)
    sys = EquationSystem(("x",), {"c": s * z, "e": z}, ("x C e",))
    assert {k: e.g for k, e in sys.constants.items()} == {"c": "s", "e": ""}
    assert check_in_base(sys, ext.base, {"x": "s"})
    assert not check_in_base(sys, ext.base, {"x": "t"})


# -- A sets and level automata ------------------------------------------


def compute_A_set(F, sbar, c):
    """The finite value set A(sbar, c) = {sigma_q(s', w) : w compatible
    with the end state s' of c read from sbar}."""
    return frozenset(reduction._accumulator(F, sbar, c).values)


def _checked_sigma_q(F, s, v):
    """sigma_q_of_state, asserted equal to the cocycle evaluated at the
    shortest word reaching s."""
    value = sigma_q_of_state(F, s, v)
    assert value == sigma_q(F.ext, shortest_witness(F, s), v), (s, v)
    return value


def test_A_set_matches_enumeration(dihedral_stack):
    # oracle: collect sigma_q(s', w) over explicitly enumerated
    # compatible words, via the independently checked witness route
    F = dihedral_stack.fpa
    for sbar in sorted(F.live):
        for c in ("", "s", "st"):
            if not is_compatible(F, sbar, c):
                continue
            sprime = F.graph.run(c, start=sbar)
            oracle = {
                _checked_sigma_q(F, sprime, w)
                for w in words_up_to(F.graph.alphabet, 8)
                if is_compatible(F, sprime, w)
            }
            assert compute_A_set(F, sbar, c) == oracle


def test_A_set_incompatible_raises(dihedral_stack):
    F = dihedral_stack.fpa
    sbar = next(iter(F.live))
    bad = next(
        w for w in words_up_to(F.graph.alphabet, 2) if not is_compatible(F, sbar, w)
    )
    with pytest.raises(Incompatible):
        compute_A_set(F, sbar, bad)
    outside_T = next(s for s in range(F.graph.n_states) if s not in F.live)
    with pytest.raises(NotAcceptingState):
        compute_A_set(F, outside_T, "")


def test_Lb_automata_partition_by_value(dihedral_stack):
    F = dihedral_stack.fpa
    sbar = sorted(F.live)[0]
    c = "s"
    if not is_compatible(F, sbar, c):
        c = ""
    sprime = F.graph.run(c, start=sbar)
    values = compute_A_set(F, sbar, c)
    automata = {b: build_Lb_automaton(F, sbar, c, b) for b in values}
    for w in words_up_to(F.graph.alphabet, 6):
        if is_compatible(F, sprime, w):
            v = _checked_sigma_q(F, sprime, w)
            for b, M in automata.items():
                assert M.accepts(w) == (v == b), (w, b.coords())
        else:
            assert not any(M.accepts(w) for M in automata.values())


def test_Lb_rejects_missing_value(dihedral_stack):
    F = dihedral_stack.fpa
    ext = dihedral_stack.ext
    sbar = next(iter(F.live))
    outside = ext.pushout_kernel.element([99])
    assert outside not in compute_A_set(F, sbar, "")
    with pytest.raises(ValueNotInASet):
        build_Lb_automaton(F, sbar, "", outside)


def test_Le_accepts_exactly_representatives(q8_stack):
    F = q8_stack.fpa
    ext = q8_stack.ext
    for g in ("", "s", "st"):
        M = build_Le_automaton(F, g, q8_stack.ball)
        for w in words_up_to(ext.base.alphabet, 5):
            expect = F.graph.accepts(w) and normal_form(ext.base, w) == g
            assert M.accepts(w) == expect, (g, w)


def reference_Le(F, ext, gs, ball):
    """L(e) for each g of gs as the product of F with the whole ball:
    every walk that stays in the ball is kept alive.  Only the accepting
    states depend on g."""
    letters = F.graph.alphabet.letters
    order = {x: k for k, x in enumerate(ball.presentation.alphabet.letters)}
    start = (F.graph.initial, 0)
    states = [start, None]
    index = {start: 0}
    rows = [[], [1] * len(letters)]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        fs, ei = states[i]
        row = []
        for x in letters:
            e2 = ball.edges[ei][order[x]]
            if e2 is None:
                row.append(1)
                continue
            nxt = (F.graph.step(fs, x), e2)
            j = index.get(nxt)
            if j is None:
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                rows.append([])
                queue.append(j)
            row.append(j)
        rows[i] = row
    rows = tuple(tuple(r) for r in rows)
    ends: dict[int, list[int]] = {}
    for i, st in enumerate(states):
        if st is not None and st[0] in F.graph.accepting:
            ends.setdefault(st[1], []).append(i)
    return {
        g: FSA(
            F.graph.alphabet,
            rows,
            0,
            frozenset(ends.get(ball.index[normal_form(ext.base, g)], ())),
        )
        for g in gs
    }


def _assert_Le_equals_reference(stack, gs):
    """Builds L(e) for each g afresh, asserts it has the reference's
    language and returns the number of states of each."""
    F, ext, ball = stack.fpa, stack.ext, stack.ball
    sizes = {}
    for g, ref in reference_Le(F, ext, gs, ball).items():
        Le = build_Le_automaton(replace(F, memo={}), g, ball)
        assert language_equal(Le, ref), g
        sizes[g] = Le.n_states
    return sizes


@pytest.mark.parametrize("name", ["q8_stack", "modular16_stack", "dihedral_stack"])
def test_Le_equals_whole_ball_product(name, request):
    stack = request.getfixturevalue(name)
    ball, nu = stack.ball, stack.fpa.lspec.nu
    gs = [w for w, d in zip(ball.words, ball.distances) if d + nu <= ball.radius]
    assert len(gs) > 1
    _assert_Le_equals_reference(stack, gs)


def test_Le_equals_whole_ball_product_t1s(t1s_stack):
    ball = t1s_stack.ball
    short = [w for w, d in zip(ball.words, ball.distances) if d <= 1]
    assert len(short) == 9
    sizes = _assert_Le_equals_reference(t1s_stack, short + ["ab", "dA", "abC"])
    # under nu = 0 the walk stays on geodesics from 1 to g, not in the
    # radius-(d(g) + nu) ball around g
    assert max(sizes.values()) <= 20, sizes


def test_Le_of_demo_constants_is_small(t1s_stack):
    # the slack set of a letter or of 1 under nu = 0 is a geodesic
    # interval of at most two elements, not the 22,289-element ball
    F, ext, ball = t1s_stack.fpa, t1s_stack.ext, t1s_stack.ball
    gs = set()
    for k in (0, 2):
        tri = triangularize(t1s_commutator_system(ext, k), identity(ext))
        gs |= {v.g for v in tri.constants.values()}
    assert "" in gs and "a" in gs
    for g in sorted(gs):
        Le = build_Le_automaton(replace(F, memo={}), g, ball)
        assert Le.n_states <= 20, (g, Le.n_states)


# -- constraint automata kept on F and D ----------------------------------


def _fsa_key(M):
    return M.transitions, M.initial, M.accepting


def _cells(F, kappa2=2):
    return [
        (sbar, c)
        for sbar in sorted(F.live)
        for c in words_up_to(F.graph.alphabet, kappa2)
        if is_compatible(F, sbar, c)
    ]


@pytest.mark.parametrize("name", ["q8_stack", "modular16_stack", "dihedral_stack"])
def test_kept_automata_equal_fresh_builds(name, request, monkeypatch):
    stack = request.getfixturevalue(name)
    F, D, ext, ball = stack.fpa, stack.ppa, stack.ext, stack.ball
    cells = _cells(F)
    # warm every cell first, so later calls read graphs built for other
    # cells with the same end state s'
    for sbar, c in cells:
        compute_A_set(F, sbar, c)
    sprimes = {F.graph.run(c, start=sbar) for sbar, c in cells}
    assert len(sprimes) < len(cells)
    assert all(("ab", sp) in F.memo for sp in sprimes)
    builds = []
    original = reduction._ab_graph

    def counting(F_, *args):
        if F_ is F:
            builds.append(args)
        return original(F_, *args)

    monkeypatch.setattr(reduction, "_ab_graph", counting)
    for sbar, c in cells:
        fresh = replace(F, memo={})
        A = compute_A_set(F, sbar, c)
        assert A == compute_A_set(fresh, sbar, c), (sbar, c)
        for b in A:
            Lb = build_Lb_automaton(F, sbar, c, b)
            assert Lb is build_Lb_automaton(F, sbar, c, b)
            assert _fsa_key(Lb) == _fsa_key(build_Lb_automaton(fresh, sbar, c, b))
        M = fpa_branch(F, sbar)
        assert M is fpa_branch(F, sbar)
        assert _fsa_key(M) == _fsa_key(fpa_branch(fresh, sbar))
    assert builds == []
    for d in ext.kernel.parity().elements():
        Dd = ppa_branch(D, d)
        assert Dd is ppa_branch(D, d)
        assert _fsa_key(Dd) == _fsa_key(ppa_branch(replace(D, memo={}), d))
    nu = F.lspec.nu
    for c in {normal_form(ext.base, c) for _, c in cells}:
        if len(c) + nu > ball.radius:
            continue
        Le = build_Le_automaton(F, c, ball)
        # a word with the same normal form reads the same automaton
        x = ext.base.alphabet.letters[0]
        padded = c + x + ext.base.alphabet.inverse[x]
        assert build_Le_automaton(F, padded, ball) is Le
        fresh_Le = build_Le_automaton(replace(F, memo={}), padded, ball)
        assert _fsa_key(fresh_Le) == _fsa_key(Le)


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_kept_automata_raise_as_fresh_builds(dihedral_stack):
    F, ext, ball = dihedral_stack.fpa, dihedral_stack.ext, dihedral_stack.ball
    sbar = sorted(F.live)[0]
    A = compute_A_set(F, sbar, "")
    fpa_branch(F, sbar)
    build_Le_automaton(F, "s", ball)
    fresh = replace(F, memo={})
    outside_T = next(s for s in range(F.graph.n_states) if s not in F.live)
    bad = next(
        w for w in words_up_to(F.graph.alphabet, 2) if not is_compatible(F, sbar, w)
    )
    outside_b = ext.pushout_kernel.element([99])
    assert outside_b not in A
    small = build_ball(ext.base, 0)
    calls = [
        (NotAcceptingState, lambda G: fpa_branch(G, outside_T)),
        (NotAcceptingState, lambda G: compute_A_set(G, outside_T, "")),
        (NotAcceptingState, lambda G: build_Lb_automaton(G, outside_T, "", outside_b)),
        (Incompatible, lambda G: compute_A_set(G, sbar, bad)),
        (Incompatible, lambda G: build_Lb_automaton(G, sbar, bad, next(iter(A)))),
        (ValueNotInASet, lambda G: build_Lb_automaton(G, sbar, "", outside_b)),
        (BallTooSmall, lambda G: build_Le_automaton(G, "s", small)),
    ]
    for err, call in calls:
        hit = _raised(lambda: call(F))
        assert hit[0] is err
        assert hit == _raised(lambda: call(fresh))
        assert hit == _raised(lambda: call(F))


def test_kept_accumulator_graph_obeys_cap_in_force(dihedral_stack, monkeypatch):
    F = dihedral_stack.fpa
    sbar = sorted(F.live)[0]
    compute_A_set(F, sbar, "")
    sprime = F.graph.run("", start=sbar)
    n = len(F.memo[("ab", sprime)].states)
    assert n > 2
    b = next(iter(compute_A_set(F, sbar, "")))
    fresh = replace(F, memo={})
    monkeypatch.setenv("EXTEQ_CAP_STATES", str(n - 1))
    for call in (
        lambda G: compute_A_set(G, sbar, ""),
        lambda G: build_Lb_automaton(G, sbar, "", b),
    ):
        hit = _raised(lambda: call(F))
        assert hit[0] is AccumulatorBound
        assert hit == _raised(lambda: call(fresh))
    # a failed build is not kept
    assert ("ab", sprime) not in fresh.memo
    monkeypatch.setenv("EXTEQ_CAP_STATES", str(n))
    assert compute_A_set(F, sbar, "") == compute_A_set(fresh, sbar, "")


def test_Le_rebuilt_over_another_ball(q8_stack):
    F, ext = q8_stack.fpa, q8_stack.ext
    Le = build_Le_automaton(F, "st", q8_stack.ball)
    other = build_ball(ext.base, q8_stack.ball.radius)
    again = build_Le_automaton(F, "st", other)
    assert again is not Le
    assert _fsa_key(again) == _fsa_key(Le)
    assert build_Le_automaton(F, "st", other) is again


# -- Theta enumeration --------------------------------------------------


def _dihedral_system(ext):
    s = ExtElement(ext, RHO, "s", ext.kernel.zero())
    return EquationSystem(("x",), {"c": s}, ("x C",))


def test_c_rows_reduce_from_normal_forms(monkeypatch):
    # the c-rows are the triples of c-words with trivial product, in
    # product order; each pair's product is reduced from nf(c1), so a
    # fresh Q8 pipeline reduces few words for them (153 when every word
    # c1 c2 was reduced, after a build that warmed the cache)
    pipe = Pipeline.build(quaternion8(), kappa2=2)
    base = pipe.ext.base
    calls = []
    reduce = words._reduce_with_log
    monkeypatch.setattr(words, "_reduce_with_log", lambda p, w: calls.append(w) or reduce(p, w))
    c_words = reduction._c_words(pipe.F, 2)
    rows = list(reduction._gen_c_rows(base, *c_words))
    monkeypatch.undo()
    assert rows == [
        cs for cs in itertools.product(c_words[0], repeat=3)
        if normal_form(base, "".join(cs)) == ""
    ]
    assert len(calls) <= 40


def test_enumerate_theta_matches_direct_filter(dihedral_stack):
    # kappa2 = 1 on the dihedral instance keeps the brute-force
    # cross-check tractable: rebuild the stream from the four defining
    # conditions checked one by one, each constant's d pinned to the
    # parity of its element
    ext, F = dihedral_stack.ext, dihedral_stack.fpa
    pipe = Pipeline(F=F, D=dihedral_stack.ppa, cocycles=dihedral_stack.cocycles, kappa2=1)
    sys = _dihedral_system(ext)
    tri = triangularize(sys, identity(ext))
    got = list(enumerate_theta(tri, pipe))
    # deterministic stream
    again = list(enumerate_theta(tri, pipe))
    assert [t.c for t in got] == [t.c for t in again]
    assert [t.b for t in got] == [t.b for t in again]

    syms = tri.row_symbols()
    words = [
        w
        for w in words_up_to(ext.base.alphabet, 1)
        if ext.base.alphabet.is_freely_reduced(w)
    ]
    count = 0
    for cs in itertools.product(words, repeat=3):
        if normal_form(ext.base, "".join(cs)) != "":
            continue
        s_opts = [
            [sb for sb in sorted(F.live) if is_compatible(F, sb, cs[j])]
            for j in range(3)
        ]
        for svec in itertools.product(*s_opts):
            b_opts = [sorted(compute_A_set(F, svec[j], cs[j]),
                             key=lambda a: a.coords()) for j in range(3)]
            n_b = 1
            for opts in b_opts:
                n_b *= len(opts)
            free = [sym for sym in syms if sym not in tri.constants]
            count += n_b * len(list(ext.kernel.parity().elements())) ** len(free)
    assert len(got) == count
    for t in got:
        for i, j, sym in tri.cells():
            if sym in tri.constants:
                g = ext.nf(tri.constants[sym].g)
                assert t.d[i][j] == pa(sigma_rho(ext, g, ext.inv_word(g)))


def test_witness_tuple_is_in_stream(dihedral_stack):
    ext, F = dihedral_stack.ext, dihedral_stack.fpa
    pipe = Pipeline(F=F, D=dihedral_stack.ppa, cocycles=dihedral_stack.cocycles, kappa2=1)
    tri = triangularize(_dihedral_system(ext), identity(ext))
    gamma = extend_to_fresh(tri, ext.base, {"x": "s"})
    t, _ = witness_theta(tri, pipe, gamma)
    assert t in enumerate_theta(tri, pipe)


# -- witness tuples, V_t, W_t, lifting ----------------------------------


def _twisted_system(ext):
    s, z = _q8_systems(ext)
    return EquationSystem(("x",), {"c": s * s * z}, ("x x C",))


def test_witness_theta_solves_Vt(q8_pipe):
    ext = q8_pipe.ext
    tri = triangularize(_twisted_system(ext), identity(ext))
    gamma = extend_to_fresh(tri, ext.base, {"x": ""})
    t, vsol = witness_theta(tri, q8_pipe, gamma)
    assert all(
        reduction._cell(q8_pipe.F, s, c)[0].is_zero()
        for s_row, c_row in zip(t.s, t.c)
        for s, c in zip(s_row, c_row)
    )
    assert all(b.is_zero() for row in t.b for b in row)
    V = build_Vt(t, tri, q8_pipe)
    assert V.check(vsol)
    assert check_constraint_lemma(V, vsol).passed


def test_witness_theta_kappa_too_small(q8_pipe):
    ext = q8_pipe.ext
    pipe = replace(q8_pipe, kappa2=0)
    tri = triangularize(_twisted_system(ext), identity(ext))
    gamma = extend_to_fresh(tri, ext.base, {"x": "s"})
    with pytest.raises(ResourceBound):
        witness_theta(tri, pipe, gamma)


def test_oracle_finds_witness_solution(q8_pipe):
    ext = q8_pipe.ext
    tri = triangularize(_twisted_system(ext), identity(ext))
    gamma = extend_to_fresh(tri, ext.base, {"x": ""})
    t, vsol = witness_theta(tri, q8_pipe, gamma)
    V = build_Vt(t, tri, q8_pipe)
    res = vf_oracle_solve(V, 2)
    assert res.found
    assert V.check(res.assignment)
    # deterministic
    assert vf_oracle_solve(V, 2).assignment == res.assignment


def test_oracle_leaves_no_reference_cycle(q8_pipe):
    # with the cyclic collector off, the V_t of a finished search dies
    # with its last reference
    ext = q8_pipe.ext
    tri = triangularize(_twisted_system(ext), identity(ext))
    gamma = extend_to_fresh(tri, ext.base, {"x": ""})
    t, _ = witness_theta(tri, q8_pipe, gamma)
    gc.collect()
    gc.disable()
    try:
        V = build_Vt(t, tri, q8_pipe)
        assert vf_oracle_solve(V, 2).found
        ref = weakref.ref(V)
        del V
        assert ref() is None
    finally:
        gc.enable()


def test_lift_roundtrip_and_converse_formula(q8_pipe):
    ext = q8_pipe.ext
    sys = _twisted_system(ext)
    tri = triangularize(sys, identity(ext))
    gamma = extend_to_fresh(tri, ext.base, {"x": ""})
    t, vsol = witness_theta(tri, q8_pipe, gamma)
    W = build_Wt(t, tri, q8_pipe.F)
    assert W.no_solution is None
    wsol = W.solve()
    assert wsol is not None
    V = build_Vt(t, tri, q8_pipe)
    lift = lift_solution(V, W, vsol, wsol)
    assert check_in_extension(sys, ext, lift.assignment)
    # converse: reading the kernel datum back off each lifted element
    # through the section reproduces the W-solution
    for i, row in enumerate(tri.rows):
        for j, sym in enumerate(row):
            if sym in tri.constants:
                continue
            e = lift.elements[sym]
            central = q_of(ext, e.g).inverse() * e
            assert central.g == ""
            back = iota1_inverse(central.a + iota4(t.d[i][j], ext.kernel))
            assert back == wsol["w:" + sym]


def test_Wt_obstruction_certificate(q8_pipe):
    # x^4 = z is unsolvable though the base equation x^4 = 1 is not:
    # the witness tuple of any base solution must produce a W system
    # whose obstruction has an odd value against modulus 2
    ext = q8_pipe.ext
    _, z = _q8_systems(ext)
    sys = EquationSystem(("x",), {"z": z}, ("x x x x Z",))
    tri = triangularize(sys, identity(ext))
    gamma = extend_to_fresh(tri, ext.base, {"x": ""})
    t, _ = witness_theta(tri, q8_pipe, gamma)
    W = build_Wt(t, tri, q8_pipe.F)
    assert W.solve() is None
    ob = W.obstruction()
    assert ob is not None and ob["modulus"] == 2 and ob["value"] % 2 == 1


# -- the driver ---------------------------------------------------------


def test_solve_finds_solution(q8_pipe):
    out = solve(
        _twisted_system(q8_pipe.ext),
        q8_pipe,
        SolveConfig(mode="finite-complete", oracle_bound=2),
    )
    assert out.status == "solved"
    assert check_in_extension(_twisted_system(q8_pipe.ext), q8_pipe.ext, out.assignment)
    assert out.certificate is not None


def test_solve_unsolvable(q8_pipe):
    ext = q8_pipe.ext
    _, z = _q8_systems(ext)
    sys = EquationSystem(("x",), {"z": z}, ("x x x x Z",))
    out = solve(sys, q8_pipe, SolveConfig(mode="finite-complete", oracle_bound=2))
    assert out.status == "unsolvable"
    assert out.report["gamma_solutions"] == 4
    assert out.report["w_unsolvable"] == out.report["thetas_tried"]
    assert out.report["obstructions"]


def test_solve_no_base_solution(q8_pipe):
    # x^2 = s: squares in the Klein quotient are trivial
    ext = q8_pipe.ext
    s, _ = _q8_systems(ext)
    sys = EquationSystem(("x",), {"c": s}, ("x x C",))
    out = solve(sys, q8_pipe, SolveConfig(mode="finite-complete", oracle_bound=2))
    assert out.status == "unsolvable"
    assert out.report["gamma_solutions"] == 0


def test_solve_sound_mode_bounded(q8_pipe):
    ext = q8_pipe.ext
    s, _ = _q8_systems(ext)
    sys = EquationSystem(("x",), {"c": s}, ("x x C",))
    out = solve(sys, q8_pipe, SolveConfig(mode="sound", theta_cap=20))
    assert out.status == "no-solution-within-bounds"
    assert out.report["thetas_tried"] == 20
    assert out.report["theta_truncated"]


def test_solve_hint_path(q8_pipe):
    sys = _twisted_system(q8_pipe.ext)
    # x = s does not extend to the extension (s^2 is the central twist),
    # x = 1 does; the driver trusts only the hint whose W system solves
    out = solve(
        sys, q8_pipe, SolveConfig(mode="sound", gamma_hints=({"x": "s"}, {"x": ""}))
    )
    assert out.status == "solved"
    assert check_in_extension(sys, q8_pipe.ext, out.assignment)
    assert out.report["w_unsolvable"] == 1


def test_finite_complete_guards(q8_pipe):
    sys = _twisted_system(q8_pipe.ext)
    small = Pipeline(F=q8_pipe.F, D=q8_pipe.D, cocycles=q8_pipe.cocycles, kappa2=1)
    with pytest.raises(ValueError):
        solve(sys, small, SolveConfig(mode="finite-complete", oracle_bound=2))
    # no oracle runs in finite-complete mode, so its bound guards nothing
    out = solve(sys, q8_pipe, SolveConfig(mode="finite-complete", oracle_bound=1))
    want = solve(sys, q8_pipe, SolveConfig(mode="finite-complete", oracle_bound=2))
    assert out.status == want.status == "solved"
    assert out.assignment == want.assignment
    # the kappa2 guard runs before any hint: x = 1 solves at kappa2 = 1
    # in sound mode, but finite-complete mode still refuses the pipeline
    hint = ({"x": ""},)
    assert solve(sys, small, SolveConfig(gamma_hints=hint)).status == "solved"
    with pytest.raises(ValueError, match="kappa2"):
        solve(sys, small, SolveConfig(mode="finite-complete", gamma_hints=hint))


def test_finite_diameter(q8_stack, dihedral_stack):
    assert finite_diameter(q8_stack.ball) == 2
    assert finite_diameter(dihedral_stack.ball) is None
