"""End-to-end acceptance suite.

Each test pins one of the package's headline guarantees with explicit
time budgets; expensive automaton synthesis is shared through the
session-scoped instance stacks.
"""

import itertools
import random
import time

import numpy as np
import pytest

from exteq.abelian import (
    iota1,
    AbelianLinearSystem,
    FGAGroup,
    iota1_inverse,
    iota3,
    iota4,
    pa,
    smith_normal_form,
    solve_linear_system,
)
from conftest import enumerate_language, reference_graph
from exteq.automata import words_up_to
from exteq.extension import central_defect, q_of, sigma_q, sigma_rho
from exteq.fpa_ppa import (
    check_fpa_key_property,
    check_ppa_key_property,
    fpa_branch,
    ppa_branch,
)
from exteq.instances import t1s_commutator_system
from exteq.reduction import (
    Pipeline,
    SolveConfig,
    check_in_extension,
    solve,
)
from exteq.words import build_ball, normal_form


def _sigma_cache(fn, ext):
    cache = {}

    def get(g, h):
        key = (g, h)
        if key not in cache:
            cache[key] = fn(ext, g, h)
        return cache[key]

    return get


def _pipeline_from(stack, kappa2):
    return Pipeline(F=stack.fpa, D=stack.ppa, cocycles=stack.cocycles, kappa2=kappa2)


# -- 1: cocycle condition -----------------------------------------------


def test_cocycle_condition_suite(t1s_stack, dihedral_stack):
    start = time.monotonic()
    rng = random.Random(41)
    for stack in (t1s_stack, dihedral_stack):
        ext = stack.ext
        p = ext.base
        b2 = [w for w, d in zip(stack.ball.words, stack.ball.distances) if d <= 2]
        b4 = [w for w, d in zip(stack.ball.words, stack.ball.distances) if d <= 4]
        nf_cache = {}

        def nf2(g, h):
            key = (g, h)
            if key not in nf_cache:
                nf_cache[key] = normal_form(p, g + h)
            return nf_cache[key]

        for fn in (sigma_rho, sigma_q):
            sig = _sigma_cache(fn, ext)
            triples = itertools.product(b2, repeat=3)
            randoms = (
                (rng.choice(b4), rng.choice(b4), rng.choice(b4))
                for _ in range(10_000)
            )
            for g, h, k in itertools.chain(triples, randoms):
                assert sig(g, h) + sig(nf2(g, h), k) == sig(g, nf2(h, k)) + sig(h, k)
    assert time.monotonic() - start < 60


# -- 2: symmetric section -----------------------------------------------


def test_symmetric_section_on_b5(t1s_stack, dihedral_stack):
    start = time.monotonic()
    for ext in (t1s_stack.ext, dihedral_stack.ext):
        ball = build_ball(ext.base, 5)
        inv = ext.base.alphabet.inverse_word
        for g in ball.words:
            assert (q_of(ext, g) * q_of(ext, normal_form(ext.base, inv(g)))).is_identity(), g
    assert time.monotonic() - start < 30


# -- 3: single-letter cocycle identity ----------------------------------


def test_sigma_q_letter_identity_on_b4(t1s_stack, dihedral_stack):
    start = time.monotonic()
    for stack in (t1s_stack, dihedral_stack):
        ext = stack.ext
        inv = ext.base.alphabet.inverse_word
        b4 = [w for w, d in zip(stack.ball.words, stack.ball.distances) if d <= 4]
        for g in b4:
            for x in ext.base.alphabet.letters:
                lhs = sigma_q(ext, g, x)
                rhs = iota3(sigma_rho(ext, g, x)) - iota3(
                    sigma_rho(ext, inv(x), normal_form(ext.base, inv(g)))
                )
                assert lhs == rhs, (g, x)
    assert time.monotonic() - start < 60


# -- 4: parity lemma ----------------------------------------------------


def test_parity_lemma_instance():
    start = time.monotonic()
    A = FGAGroup(2, (3, 4))
    for f1 in range(-10, 11):
        for f2 in range(-10, 11):
            for t1 in range(3):
                for t2 in range(4):
                    a = A.element([f1, f2], [t1, t2])
                    doubled = iota3(a) + iota4(pa(a), A)
                    back = iota1_inverse(doubled)
                    assert back.group == A
                    assert iota1(back) == doubled
    assert time.monotonic() - start < 10


# -- 5 and 6: product automata on the infinite dihedral instance --------


def test_fpa_acceptance(dihedral_stack):
    start = time.monotonic()
    F = dihedral_stack.fpa
    L, _ = reference_graph(dihedral_stack.lspec, None)
    for w in words_up_to(F.graph.alphabet, 8):
        assert F.graph.accepts(w) == L.accepts(w), w
    full = set(enumerate_language(L, 8))
    parts = [set(enumerate_language(fpa_branch(F, s), 8)) for s in F.live]
    assert set().union(*parts) == full
    assert sum(map(len, parts)) == len(full)
    report = check_fpa_key_property(F, 6, 4)
    assert report.passed, report.counterexamples[:3]
    assert time.monotonic() - start < 600


def test_ppa_acceptance(dihedral_stack):
    start = time.monotonic()
    D, L, ext = dihedral_stack.ppa, dihedral_stack.fpa.graph, dihedral_stack.ext
    for w in words_up_to(D.fsa.alphabet, 8):
        assert D.fsa.accepts(w) == L.accepts(w), w
    full = set(enumerate_language(L, 8))
    branches = {d: set(enumerate_language(ppa_branch(D, d), 8))
                for d in ext.kernel.parity().elements()}
    assert set().union(*branches.values()) == full
    assert sum(map(len, branches.values())) == len(full)
    inv = ext.base.alphabet.inverse_word
    for d, words in branches.items():
        for w in words:
            assert pa(sigma_rho(ext, w, inv(w))) == d, w
    report = check_ppa_key_property(D, dihedral_stack.cocycles, 8)
    assert report.passed, report.counterexamples[:3]
    assert time.monotonic() - start < 600


# -- 7: the unit tangent bundle obstruction -----------------------------


def test_t1s_obstruction_and_sibling(t1s_stack):
    start = time.monotonic()
    ext = t1s_stack.ext
    inv = ext.base.alphabet.inverse_word
    two_minus = ext.kernel.element([-2])
    xs = {n: "c" + ("d" * n if n >= 0 else "D" * (-n)) for n in range(-4, 5)}
    for n, x in xs.items():
        word = "abAB" + x + "d" + inv(x) + "D"
        assert central_defect(ext, word) == two_minus, n

    pipe = _pipeline_from(t1s_stack, kappa2=7)
    hints = tuple({"x": x} for x in xs.values())
    out = solve(
        t1s_commutator_system(ext, 0),
        pipe,
        SolveConfig(mode="sound", oracle_bound=0, gamma_hints=hints),
    )
    assert out.status == "no-solution-within-bounds"
    assert out.report["thetas_tried"] == 9
    assert out.report["w_unsolvable"] == 9
    assert not out.report["anomalies"]
    # the one obstruction shared by every candidate tuple reads 0 = -2
    assert out.report["obstructions"] == [
        {
            "coordinate": 0,
            "combination": out.report["obstructions"][0]["combination"],
            "value": -2,
            "modulus": None,
        }
    ]

    sibling = t1s_commutator_system(ext, 2)
    out2 = solve(
        sibling,
        pipe,
        SolveConfig(mode="sound", oracle_bound=0, gamma_hints=({"x": "c"},)),
    )
    assert out2.status == "solved"
    assert out2.assignment["x"].g == "c"
    assert check_in_extension(sibling, ext, out2.assignment)
    assert out2.certificate is not None
    assert time.monotonic() - start < 300


# -- 8 and 9: finite-group end-to-end agreement -------------------------


def test_finite_corpus_agreement(q8_stack, modular16_stack):
    from exteq import files
    from pathlib import Path

    start = time.monotonic()
    data = Path(__file__).resolve().parent.parent / "data"
    corpus = files.load_json(str(data / "corpus.json"))["systems"]
    assert len(corpus) == 20
    stacks = {"quaternion8": q8_stack, "modular16": modular16_stack}
    pipes = {k: _pipeline_from(s, kappa2=2) for k, s in stacks.items()}
    n_solved = 0
    for entry in corpus:
        pipe = pipes[entry["extension"]]
        sys_ = files.equation_system_from_json(entry["system"], pipe.ext)
        out = solve(sys_, pipe, SolveConfig(mode="finite-complete", oracle_bound=2))
        assert out.status == entry["expected"], entry
        if out.status == "solved":
            n_solved += 1
            assert check_in_extension(sys_, pipe.ext, out.assignment)
            assert out.certificate["cells"]
            # constraint lemma items (1)-(4) ran on the oracle solution
            assert out.report["lemma_cells_checked"] > 0
    assert n_solved == sum(e["expected"] == "solved" for e in corpus) > 0
    assert time.monotonic() - start < 900


# -- 10: the abelian workhorse ------------------------------------------


def _det(M):
    if len(M) == 1:
        return M[0][0]
    total = 0
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total


def _exhaustive_solvable(group, variables, equations):
    # per-coordinate brute force, vectorized; coordinates of a direct
    # sum are independent
    nvars = len(variables)
    for c, d in enumerate(group.torsion):
        grids = np.meshgrid(*[np.arange(d)] * nvars, indexing="ij")
        ok = np.ones(grids[0].shape, dtype=bool)
        for coeffs, rhs in equations:
            acc = np.zeros(grids[0].shape, dtype=np.int64)
            for j, v in enumerate(variables):
                acc += coeffs.get(v, 0) * grids[j]
            ok &= (acc - rhs.coords()[c]) % d == 0
        if not ok.any():
            return False
    return True


def test_abelian_solver_and_snf():
    start = time.monotonic()
    rng = random.Random(99)
    torsions = [
        (2,), (3,), (4,), (6,), (9,), (12,), (36,),
        (2, 2), (2, 6), (3, 12), (6, 6), (2, 3), (4, 9), (2, 2, 9),
    ]
    for _ in range(1000):
        group = FGAGroup(0, rng.choice(torsions))
        nvars = rng.randrange(1, 4)
        variables = tuple(f"x{i}" for i in range(nvars))
        system = AbelianLinearSystem(group, variables)
        equations = []
        for _ in range(rng.randrange(1, 4)):
            coeffs = {v: rng.randrange(-3, 4) for v in variables}
            rhs = group.element(
                [], [rng.randrange(d) for d in group.torsion]
            )
            system.add(coeffs, rhs)
            equations.append((coeffs, rhs))
        solution, _ = solve_linear_system(system)
        expected = _exhaustive_solvable(group, variables, equations)
        assert (solution is not None) == expected
        if solution is not None:
            assert system.check(solution)

    for _ in range(1000):
        M = [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)]
        U, D, V = smith_normal_form(M)
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1
        UMV = np.array(U) @ np.array(M) @ np.array(V)
        assert (UMV == np.array(D)).all()
        # diagonal with divisibility chain
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert D[i][j] == 0
        for i in range(3):
            if D[i + 1][i + 1] != 0:
                assert D[i][i] != 0 and D[i + 1][i + 1] % D[i][i] == 0
    assert time.monotonic() - start < 60
