"""The Theta stream, W_t and the oracle's domains against the code they
replaced.

W_t's assignment and obstruction come from one Smith form per
coordinate; `reference_w_outcome` is the solve followed by a second
Smith-form pass for the obstruction.

`enumerate_theta`, `build_Wt` and the oracle keep work that depends on
the pipeline alone on its F: the c-words, c-rows, compatible states and
cells, the constant preimages and row right-hand sides, and
each p-variable's domain.  The reference_* functions below are the
versions that recomputed everything for every tuple; the kept versions
must yield the same tuples, W systems and domains, cold, warm and after
a stream at another kappa2, and must keep nothing that outlives its key.
"""

import itertools
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from exteq import abelian, files, reduction
from exteq.abelian import (
    AbelianLinearSystem,
    coordinate_systems,
    iota1_inverse,
    iota4,
    pa,
    smith_normal_form,
)
from exteq.automata import words_up_to
from exteq.errors import (
    Incompatible,
    LiftVerificationFailed,
    NotAcceptingState,
    NotInImage,
)
from exteq.extension import (
    RHO,
    ExtElement,
    identity,
    iota2,
    q_of,
    sigma_q,
    sigma_rho,
)
from exteq.fpa_ppa import is_compatible, sigma_q_of_state
from exteq.reduction import (
    EquationSystem,
    Pipeline,
    SolveConfig,
    ThetaIndex,
    WSystem,
    _accumulator,
    _cell,
    _p_domains,
    _w_name,
    build_Vt,
    build_Wt,
    enumerate_theta,
    solve,
    triangularize,
)
from exteq.words import normal_form

DATA = Path(__file__).resolve().parent.parent / "data"


# -- the reference: every tuple recomputed from scratch -------------------


def reference_c_rows(base, kappa2):
    words = [
        w
        for w in words_up_to(base.alphabet, kappa2)
        if base.alphabet.is_freely_reduced(w)
    ]
    bucket = {}
    for w in words:
        bucket.setdefault(normal_form(base, w), []).append(w)
    for c1, c2 in itertools.product(words, repeat=2):
        g12 = normal_form(base, c1 + c2)
        for c3 in bucket.get(normal_form(base, base.alphabet.inverse_word(g12)), ()):
            yield (c1, c2, c3)


def reference_enumerate_theta(tri, ctx, F, ext):
    base = ctx.base
    n = len(tri.rows)
    if n == 1:
        c_mats = ((row,) for row in reference_c_rows(base, ctx.kappa2))
    else:
        c_mats = itertools.product(list(reference_c_rows(base, ctx.kappa2)), repeat=n)
    T = sorted(F.live)
    d_values = list(ext.kernel.parity().elements())
    syms = tri.row_symbols()
    pinned = {}
    for sym in syms:
        if sym in tri.constants:
            g = tri.constants[sym].g
            pinned[sym] = pa(sigma_rho(ext, g, base.alphabet.inverse_word(g)))
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
                _accumulator(F, s_flat[k], c_mat[k // 3][k % 3]).values
                for k in range(3 * n)
            ]
            s_mat = tuple(tuple(s_flat[3 * i : 3 * i + 3]) for i in range(n))
            for b_flat in itertools.product(*b_opts):
                b_mat = tuple(tuple(b_flat[3 * i : 3 * i + 3]) for i in range(n))
                d_opts = [
                    (pinned[sym],) if sym in pinned else d_values for sym in syms
                ]
                for d_choice in itertools.product(*d_opts):
                    dmap = dict(zip(syms, d_choice))
                    d_mat = tuple(tuple(dmap[sym] for sym in row) for row in tri.rows)
                    yield ThetaIndex(c_mat, s_mat, b_mat, d_mat)


def reference_build_Wt(t, tri, F) -> WSystem:
    ext = F.ext
    A = ext.kernel
    d_of = {}
    for i, j, sym in tri.cells():
        if sym in d_of and d_of[sym] != t.d[i][j]:
            return WSystem(None, {}, f"conflicting parity data for {sym!r}")
        d_of[sym] = t.d[i][j]
    constant_values = {}
    for sym, d in d_of.items():
        if sym not in tri.constants:
            continue
        e = tri.constants[sym]
        central = iota2(e) * q_of(ext, e.g).inverse()
        if central.g != "":
            raise LiftVerificationFailed(f"constant {sym!r} drifted off the section")
        try:
            constant_values[sym] = iota1_inverse(central.a + iota4(d, A))
        except NotInImage:
            return WSystem(None, {}, f"constant {sym!r} has no kernel preimage")
    var_syms = [s for s in tri.row_symbols() if s not in tri.constants]
    system = AbelianLinearSystem(A, tuple(_w_name(s) for s in var_syms))
    for i, row in enumerate(tri.rows):
        total = ext.pushout_kernel.zero()
        for j in range(3):
            a = sigma_q_of_state(F, t.s[i][j], t.c[i][j])
            total = total + a + t.b[i][j] + iota4(t.d[i][j], A)
        total = total - sigma_q(ext, t.c[i][0], t.c[i][1])
        try:
            rhs = iota1_inverse(total)
        except NotInImage:
            return WSystem(None, {}, f"row {i} right-hand side has no kernel preimage")
        coeffs = {}
        for sym in row:
            if sym in tri.constants:
                rhs = rhs - constant_values[sym]
            else:
                name = _w_name(sym)
                coeffs[name] = coeffs.get(name, 0) + 1
        system.add(coeffs, rhs)
    return WSystem(system, constant_values)


def _reference_integer_solution(M, b):
    """One integer solution x of M x = b, or None; free parameters are 0."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    U, D, V = smith_normal_form(M)
    c = [sum(U[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d:
                return None
            y[i] = c[i] // d
    return [sum(V[i][k] * y[k] for k in range(cols)) for i in range(cols)]


def reference_w_outcome(W: WSystem):
    """(assignment or None, obstruction or None): the assignment solved
    coordinate by coordinate, then the obstruction from a second Smith
    form of each coordinate's system."""
    if W.no_solution is not None:
        return None, {"reason": W.no_solution}
    g = W.system.group
    values = {v: [0] * (g.rank + len(g.torsion)) for v in W.system.variables}
    assignment = None
    for coord, M, bvec in coordinate_systems(W.system):
        x = _reference_integer_solution(M, bvec)
        if x is None:
            break
        for i, v in enumerate(W.system.variables):
            values[v][coord] = x[i]
    else:
        assignment = {v: g.element(x[: g.rank], x[g.rank :]) for v, x in values.items()}
    neq = len(W.system.equations)
    for coord, M, bvec in coordinate_systems(W.system):
        if not M:
            continue
        ncols = len(M[0])
        U, Dg, _ = smith_normal_form(M)
        c = [sum(U[i][k] * bvec[k] for k in range(neq)) for i in range(neq)]
        for i in range(neq):
            dd = Dg[i][i] if i < ncols else 0
            if dd == 0 and c[i] != 0:
                combo, value = U[i], c[i]
                if value > 0:
                    combo, value = [-x for x in combo], -value
                return assignment, {
                    "coordinate": coord,
                    "combination": list(combo),
                    "value": value,
                    "modulus": None,
                }
            if dd != 0 and c[i] % dd:
                return assignment, {
                    "coordinate": coord,
                    "combination": list(U[i]),
                    "value": c[i],
                    "modulus": dd,
                }
    return assignment, None


def _reference_preimage(F, key):
    """What build_Wt keeps under a ("row", c, sbar, b, d) or ("constant",
    g, a, d) key, computed afresh from the key alone."""
    ext = F.ext
    if key[0] == "constant":
        _, g, a, d = key
        central = iota2(ExtElement(ext, RHO, g, a)) * q_of(ext, g).inverse()
        total = central.a + iota4(d, ext.kernel)
    else:
        _, c, s, b, d = key
        total = ext.pushout_kernel.zero()
        for j in range(3):
            a = sigma_q_of_state(F, s[j], c[j])
            total = total + a + b[j] + iota4(d[j], ext.kernel)
        total = total - sigma_q(ext, c[0], c[1])
    try:
        return iota1_inverse(total)
    except NotInImage:
        return None


# -- helpers --------------------------------------------------------------


def _corpus(ext_name=None):
    corpus = files.load_json(str(DATA / "corpus.json"))["systems"]
    return [e for e in corpus if ext_name in (None, e["extension"])]


def _cold(pipe: Pipeline) -> Pipeline:
    """The pipeline's automata with an empty memo on F."""
    return replace(pipe, F=replace(pipe.F, memo={}))


def _outcome(fn):
    try:
        return ("returned", fn())
    except Exception as e:  # compared by type and message
        return ("raised", type(e), str(e))


def _w_view(W: WSystem):
    eqs = None if W.system is None else (W.system.variables, W.system.equations)
    return (eqs, W.constant_values, W.no_solution, W.solve(), W.obstruction())


def _w_of(build, t, tri, F):
    out = _outcome(lambda: build(t, tri, F))
    return out if out[0] == "raised" else ("returned", _w_view(out[1]))


@pytest.fixture(scope="module")
def corpus_pipes(q8_stack, modular16_stack):
    return {
        name: Pipeline(s.fpa, s.ppa, s.cocycles, 2)
        for name, s in (("quaternion8", q8_stack), ("modular16", modular16_stack))
    }


# -- the stream and W_t equal the reference --------------------------------

HEAD = 40


@pytest.mark.parametrize("ext_name", ["quaternion8", "modular16"])
def test_stream_and_Wt_equal_reference(corpus_pipes, ext_name):
    pipe = _cold(corpus_pipes[ext_name])
    ext, F = pipe.ext, pipe.F
    # what the reference stream reads of a kappa2: the base and the bound
    ctx, other = (SimpleNamespace(base=ext.base, kappa2=k) for k in (pipe.kappa2, 1))
    cases = []
    for entry in _corpus(ext_name):
        sys_ = files.equation_system_from_json(entry["system"], ext)
        tri = triangularize(sys_, identity(ext))
        for c in (ctx, other):
            ref = list(itertools.islice(reference_enumerate_theta(tri, c, F, ext), HEAD))
            ref_W = [_w_of(reference_build_Wt, t, tri, F) for t in ref]
            cases.append((tri, c, ref, ref_W))
    assert any(len(tri.rows) == 1 for tri, _, _, _ in cases)
    assert any(len(tri.rows) > 1 for tri, _, _, _ in cases)

    def check(label, kappa2):
        for k, (tri, c, ref, ref_W) in enumerate(cases):
            if c.kappa2 != kappa2:
                continue
            got = list(itertools.islice(
                enumerate_theta(tri, replace(pipe, kappa2=c.kappa2)), HEAD
            ))
            assert got == ref, (label, k)
            for t, want in zip(got, ref_W):
                assert _w_of(build_Wt, t, tri, F) == want, (label, k, t)

    F.memo.clear()
    check("cold", 2)
    check("warm", 2)
    check("kappa2 = 1 after kappa2 = 2", 1)
    check("after kappa2 = 1", 2)
    # the head of a stream reads few c-rows, so compare what F keeps too
    kinds = {}
    for key, kept in F.memo.items():
        kinds.setdefault(key[0], []).append(key[1:])
        if key[0] == "c-rows":
            assert kept == tuple(reference_c_rows(ext.base, key[1])), key
        elif key[0] == "compatible":
            assert kept == tuple(s for s in sorted(F.live) if is_compatible(F, s, key[1]))
        elif key[0] == "cell":
            s, c = key[1:]
            assert kept == (sigma_q_of_state(F, s, c), F.graph.run(c, start=s)), key
    assert sorted(kinds["c-rows"]) == [(1,), (2,)]
    assert {"c-words", "compatible", "cell"} <= set(kinds)


def _dihedral_tri(ext):
    s = ExtElement(ext, RHO, "s", ext.kernel.zero())
    return triangularize(EquationSystem(("x",), {"c": s}, ("x C",)), identity(ext))


def test_dihedral_whole_stream_equals_reference(dihedral_stack):
    ext = dihedral_stack.ext
    F = replace(dihedral_stack.fpa, memo={})
    ctx = SimpleNamespace(base=ext.base, kappa2=1)
    pipe = Pipeline(F, dihedral_stack.ppa, dihedral_stack.cocycles, 1)
    tri = _dihedral_tri(ext)
    ref = list(reference_enumerate_theta(tri, ctx, F, ext))
    assert len(ref) > HEAD
    other = SimpleNamespace(base=ext.base, kappa2=2)
    ref_other = list(itertools.islice(reference_enumerate_theta(tri, other, F, ext), HEAD))
    F.memo.clear()
    assert list(enumerate_theta(tri, pipe)) == ref
    assert list(enumerate_theta(tri, pipe)) == ref
    # kappa2 = 1 once F keeps what a kappa2 = 2 stream left
    F.memo.clear()
    assert list(itertools.islice(
        enumerate_theta(tri, replace(pipe, kappa2=2)), HEAD
    )) == ref_other
    assert list(enumerate_theta(tri, pipe)) == ref
    for t in ref[:HEAD]:
        assert _w_of(build_Wt, t, tri, F) == _w_of(reference_build_Wt, t, tri, F)


@pytest.mark.parametrize("mode", ["sound", "finite-complete"])
def test_Wt_outcome_equals_reference_one_smith_form_each(corpus_pipes, monkeypatch, mode):
    # every W_t the corpus solves build: the same assignment and
    # obstruction as the reference, from one Smith form per coordinate
    # decided, the failing one last
    built = []
    original = reduction.build_Wt

    def recording(*args):
        W = original(*args)
        built.append(W)
        return W

    monkeypatch.setattr(reduction, "build_Wt", recording)
    config = SolveConfig(mode=mode, theta_cap=20, oracle_bound=2)
    for entry in _corpus():
        pipe = corpus_pipes[entry["extension"]]
        solve(files.equation_system_from_json(entry["system"], pipe.ext), pipe, config)
    monkeypatch.undo()
    calls = []

    def counted(M):
        calls.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(abelian, "smith_normal_form", counted)
    monkeypatch.setattr(reduction, "smith_normal_form", counted, raising=False)
    outcomes = set()
    for kept in built:
        W = WSystem(kept.system, kept.constant_values, kept.no_solution)
        calls.clear()
        got = (W.solve(), W.obstruction())
        outcomes.add((got[0] is None, got[1] is not None and "coordinate" in got[1]))
        assert got == reference_w_outcome(W)
        if W.no_solution is not None or not W.system.equations:
            decided = 0
        elif got[1] is not None:
            decided = got[1]["coordinate"] + 1
        else:
            decided = W.system.group.rank + len(W.system.group.torsion)
        assert len(calls) == decided
    # solvable systems and Smith-form obstructions both occur
    assert {(False, False), (True, True)} <= outcomes


# -- what is kept, and for how long -----------------------------------------


def _renamed(system: dict) -> dict:
    """The same system with every symbol renamed, tokens inverted alike."""

    def tok(t):
        return "v" + t if t[0].islower() else "V" + t

    return {
        **system,
        "variables": ["v" + v for v in system["variables"]],
        "constants": {"v" + k: v for k, v in system["constants"].items()},
        "equations": [" ".join(tok(t) for t in eq.split()) for eq in system["equations"]],
    }


def _flat(key):
    for part in key:
        if isinstance(part, tuple):
            yield from _flat(part)
        else:
            yield part


def test_memo_lifetimes_over_the_corpus(corpus_pipes, monkeypatch):
    pipes = {name: _cold(pipe) for name, pipe in corpus_pipes.items()}
    tris = []
    original = reduction.triangularize

    def recording(*args, **kwargs):
        tri = original(*args, **kwargs)
        tris.append(tri)
        return tri

    monkeypatch.setattr(reduction, "triangularize", recording)
    config = SolveConfig(mode="sound", theta_cap=20)

    def solve_corpus(rename=False):
        tris.clear()
        reports = []
        for entry in _corpus():
            pipe = pipes[entry["extension"]]
            obj = _renamed(entry["system"]) if rename else entry["system"]
            out = solve(files.equation_system_from_json(obj, pipe.ext), pipe, config)
            reports.append(out.report)
        return reports, {name: set(p.F.memo) for name, p in pipes.items()}

    first, keys = solve_corpus()
    # W_t keeps at most one right-hand side per row tried and one
    # preimage per constant value and parity, on F, not per solve
    row_bound = dict.fromkeys(pipes, 0)
    values = {name: set() for name in pipes}
    for entry, tri, report in zip(_corpus(), tris, first):
        name = entry["extension"]
        row_bound[name] += len(tri.rows) * report["thetas_tried"]
        values[name] |= {(e.g, e.a) for e in tri.constants.values()}
    for name, pipe in pipes.items():
        rows = [k for k in keys[name] if k[0] == "row"]
        consts = [k for k in keys[name] if k[0] == "constant"]
        n_parity = len(list(pipe.ext.kernel.parity().elements()))
        assert 0 < len(rows) <= row_bound[name]
        assert 0 < len(consts) <= len(values[name]) * n_parity
        assert {k[1:3] for k in consts} <= values[name]
        for key in rows + consts:
            assert pipe.F.memo[key] == _reference_preimage(pipe.F, key), key
    again, keys_again = solve_corpus()
    assert again == first
    assert keys_again == keys
    renamed, keys_renamed = solve_corpus(rename=True)
    assert renamed == first
    assert keys_renamed == keys
    symbols = {sym for tri in tris for sym in tri.row_symbols()}
    for name, pipe in pipes.items():
        letters = set(pipe.ext.base.alphabet.letters)
        foreign = {sym for sym in symbols if not set(sym) <= letters}
        assert foreign
        for key in keys[name]:
            assert not foreign & {p for p in _flat(key) if isinstance(p, str)}, key


def test_incompatible_cell_raises_every_call(dihedral_stack):
    F = replace(dihedral_stack.fpa, memo={})
    sbar = sorted(F.live)[0]
    bad = next(
        w for w in words_up_to(F.graph.alphabet, 2) if not is_compatible(F, sbar, w)
    )
    outside_T = next(s for s in range(F.graph.n_states) if s not in F.live)
    for s, c, err in ((sbar, bad, Incompatible), (outside_T, "", NotAcceptingState)):
        hits = [_outcome(lambda: _cell(F, s, c)) for _ in range(2)]
        assert hits[0][:2] == ("raised", err)
        assert hits[1] == hits[0]
    assert not [k for k in F.memo if k[0] == "cell" and k[2] == bad]
    assert not [k for k in F.memo if k[0] == "cell" and k[1] == outside_T]


def test_drifted_constant_raises_every_call(q8_stack, monkeypatch):
    ext, F = q8_stack.ext, replace(q8_stack.fpa, memo={})
    sys_ = EquationSystem(("x",), {"c": ExtElement(ext, RHO, "s", ext.kernel.zero())},
                          ("x C",))
    tri = triangularize(sys_, identity(ext))
    t = next(enumerate_theta(tri, Pipeline(F, q8_stack.ppa, q8_stack.cocycles, 2)))
    kept = dict(F.memo)
    # a section read off the wrong element leaves the constant's central
    # part outside the kernel
    monkeypatch.setattr(reduction, "q_of", lambda ext_, g: q_of(ext_, g + "t"))
    for _ in range(2):
        with pytest.raises(LiftVerificationFailed, match="drifted off the section"):
            build_Wt(t, tri, F)
    assert F.memo == kept
    monkeypatch.undo()
    assert _w_of(build_Wt, t, tri, F) == _w_of(reference_build_Wt, t, tri, F)


# -- the oracle's domains ----------------------------------------------------

ORACLE_HEAD = 20


@pytest.mark.parametrize("ext_name", ["quaternion8", "modular16"])
def test_oracle_domains_equal_fresh_filter(corpus_pipes, ext_name):
    pipe = _cold(corpus_pipes[ext_name])
    ext, F = pipe.ext, pipe.F
    alphabet = ext.base.alphabet
    cases = []
    for entry in _corpus(ext_name):
        tri = triangularize(files.equation_system_from_json(entry["system"], ext),
                            identity(ext))
        thetas = itertools.islice(enumerate_theta(tri, pipe), ORACLE_HEAD)
        cases.extend((tri, t) for t in thetas)

    def fresh(V, name, bound):
        def ok(w):
            return all(
                fsa.accepts(alphabet.inverse_word(w) if inverted else w)
                for fsa, inverted in V.constraints[name]
            )

        return tuple(w for w in words_up_to(alphabet, bound) if ok(w))

    def domain_keys():
        return {k for k in F.memo if k[0] == "domain"}

    F.memo.clear()
    kept = []
    for label in ("cold", "warm"):
        for tri, t in cases:
            V = build_Vt(t, tri, pipe)
            for bound in (2, 1):
                domains = _p_domains(V, bound)
                names = [name for row in V.p_names for name in row]
                assert sorted(domains) == sorted(names)
                for name in names:
                    assert domains[name] == fresh(V, name, bound), (label, name)
        kept.append(domain_keys())
    assert kept[0] and kept[1] == kept[0]
    assert {k[1] for k in kept[0]} == {1, 2}
