"""The pruned validation walk against the exhaustive reference walkers.

The reference walkers below enumerate every word of length <= R, test
each one for quasi-geodesicity with Fraction arithmetic and evaluate
every expected cocycle value by the string route.  The walk in
`lrational` must report exactly the same mismatches in the same order,
and the integer cocycle tables it reads must agree with the string route.
"""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from exteq.automata import FSA
from exteq.extension import BallCocycles, sigma_q, sigma_rho
from exteq.instances import (
    dihedral_presentation,
    genus2_presentation,
    klein_presentation,
)
from exteq.lrational import (
    KINDS,
    Q_LEFT,
    RHO_RIGHT_REVERSED,
    LanguageSpec,
    PredictorFamily,
    ValidationReport,
    _direct_value,
    _synthesize_graph,
    _validate_L,
    validate_family,
)
from exteq.words import build_ball, is_quasigeodesic

SRC = Path(__file__).resolve().parent.parent / "src"


# -- the exhaustive reference -------------------------------------------


def qg_fraction(ball, w, lam, nu):
    """d(1, w') >= |w'|/lam - nu for every subword, in Fractions."""
    lam, nu = Fraction(lam), Fraction(nu)
    for i in range(len(w)):
        cur = 0
        for j in range(i + 1, len(w) + 1):
            cur = ball.edges[cur][w[j - 1]]
            if ball.distances[cur] < Fraction(j - i) / lam - nu:
                return False
    return True


def reference_validate_L(fsa, lspec, R, ball):
    alpha = lspec.presentation.alphabet
    mismatches = []
    frontier = [("", fsa.initial)]
    for _ in range(R + 1):
        nxt = []
        for w, s in frontier:
            expected = qg_fraction(ball, w, lspec.lam, lspec.nu)
            got = s in fsa.accepting
            if expected != got:
                mismatches.append((w, expected, got))
            for x in alpha.letters:
                if len(w) < R:
                    nxt.append((w + x, fsa.step(s, x)))
        frontier = nxt
    return ValidationReport(R, tuple(mismatches))


def reference_validate_family(fam, ext, R, ball):
    lspec = fam.lspec
    alpha = lspec.presentation.alphabet
    mismatches = []
    frontier = [("", "")]  # (L-word w, tape word)
    for _ in range(R + 1):
        nxt = []
        for w, tape in frontier:
            in_L = qg_fraction(ball, w, lspec.lam, lspec.nu)
            s = fam.graph.run(tape)
            got_live = s in fam.live
            if in_L != got_live:
                mismatches.append(("membership", w, in_L, got_live))
            elif in_L:
                for x in alpha.letters:
                    expected = _direct_value(ext, fam.kind, tape, x)
                    got = fam.values[x][s]
                    if expected != got:
                        mismatches.append(("value", w, x, expected, got))
            if len(w) < R:
                for x in alpha.letters:
                    t = x if fam.kind != RHO_RIGHT_REVERSED else alpha.inverse[x]
                    nxt.append((w + x, tape + t))
        frontier = nxt
    return ValidationReport(R, tuple(mismatches))


def _replace(fam, **changes):
    fields = dict(
        kind=fam.kind, ext=fam.ext, lspec=fam.lspec, graph=fam.graph,
        values=fam.values, value_sets=fam.value_sets, reps=fam.reps,
    )
    fields.update(changes)
    return PredictorFamily(**fields)


# -- the walk equals the reference --------------------------------------


STACKS = [
    ("q8_stack", 7),
    ("modular16_stack", 6),
    ("dihedral_stack", 7),
    # the full radius-5 reference walk on t1s costs about a minute
    ("t1s_stack", 4),
]


@pytest.mark.parametrize("stack_name,R", STACKS)
def test_good_stacks_match_reference(request, stack_name, R):
    stack = request.getfixturevalue(stack_name)
    new = _validate_L(stack.L, stack.lspec, R, stack.ball)
    assert new == reference_validate_L(stack.L, stack.lspec, R, stack.ball)
    assert new.passed
    for kind in KINDS:
        fam = stack.fams[kind]
        new = validate_family(fam, stack.ext, R, stack.ball)
        assert new == reference_validate_family(fam, stack.ext, R, stack.ball)
        assert new.passed


def test_small_radii_match_reference(dihedral_stack, q8_stack):
    for stack in (dihedral_stack, q8_stack):
        for R in range(4):
            ball = build_ball(stack.ext.base, R)
            assert _validate_L(stack.L, stack.lspec, R, ball) == (
                reference_validate_L(stack.L, stack.lspec, R, ball)
            )
            for fam in stack.fams.values():
                new = validate_family(fam, stack.ext, R, ball)
                assert new == reference_validate_family(fam, stack.ext, R, ball)
                assert new.passed


def test_unchained_elements_fall_back_to_string_route(q8_stack, dihedral_stack):
    # with no element on a prefix-closed chain, every sigma_q and reversed
    # value is evaluated by the string route
    for stack in (q8_stack, dihedral_stack):
        ball = build_ball(stack.ext.base, 5)
        unchained = dataclasses.replace(ball, parents=[None] * len(ball))
        for fam in stack.fams.values():
            new = validate_family(fam, stack.ext, 5, unchained)
            assert new.passed
        fam = stack.fams[Q_LEFT]
        s = fam.graph.run("s")
        x = fam.graph.alphabet.letters[0]
        row = list(fam.values[x])
        row[s] = row[s] + stack.ext.pushout_kernel.element(
            [1] * stack.ext.kernel.rank, [1] * len(stack.ext.kernel.torsion)
        )
        broken = _replace(fam, values=dict(fam.values, **{x: tuple(row)}))
        new = validate_family(broken, stack.ext, 5, unchained)
        assert new.mismatches
        assert new == reference_validate_family(broken, stack.ext, 5, ball)


@pytest.mark.parametrize("kind", KINDS)
def test_non_closed_dead_set_matches_reference(q8_stack, kind):
    # a live state turned non-live still reaches live states, so the walk
    # must not prune below it
    fam = q8_stack.fams[kind]
    tape = "st" if kind != RHO_RIGHT_REVERSED else "ST"
    victim = fam.graph.run(tape)
    assert victim in fam.live
    graph = FSA(
        fam.graph.alphabet,
        fam.graph.transitions,
        fam.graph.initial,
        fam.graph.accepting - {victim},
    )
    broken = _replace(fam, graph=graph)
    ball = q8_stack.ball
    for R in (3, 7):
        new = validate_family(broken, q8_stack.ext, R, ball)
        assert new.mismatches
        assert new == reference_validate_family(broken, q8_stack.ext, R, ball)
        new_L = _validate_L(graph, fam.lspec, R, ball)
        assert new_L == reference_validate_L(graph, fam.lspec, R, ball)


@pytest.mark.parametrize("stack_name", ["q8_stack", "dihedral_stack"])
def test_mutated_values_match_reference(request, stack_name):
    stack = request.getfixturevalue(stack_name)
    rng = random.Random(7)
    for kind in KINDS:
        fam = stack.fams[kind]
        group = stack.ext.pushout_kernel if kind == Q_LEFT else stack.ext.kernel
        values = {x: list(v) for x, v in fam.values.items()}
        live = sorted(fam.live)
        for _ in range(4):
            x = rng.choice(fam.graph.alphabet.letters)
            s = rng.choice(live)
            values[x][s] = values[x][s] + group.element(
                [1] * group.rank, [1] * len(group.torsion)
            )
        broken = _replace(fam, values={x: tuple(v) for x, v in values.items()})
        new = validate_family(broken, stack.ext, 5, stack.ball)
        assert any(m[0] == "value" for m in new.mismatches)
        assert new == reference_validate_family(broken, stack.ext, 5, stack.ball)


def test_narrow_genus2_window_matches_reference():
    # the scheme test_bad_scheme_is_rejected rejects: membership mismatches
    # appear at radius 5 and must come out in the same order
    p = genus2_presentation()
    lspec = LanguageSpec(p, nu=0, window=1)
    fsa, _ = _synthesize_graph(lspec, None, None)
    ball = build_ball(p, 5)
    new = _validate_L(fsa, lspec, 5, ball)
    assert new.mismatches
    assert new == reference_validate_L(fsa, lspec, 5, ball)


# -- the integer cocycle tables equal the string route ------------------


def _check_tables(ext, ball, pairs):
    bc = BallCocycles(ext, ball)
    letters = ext.base.alphabet.letters
    for g, xi in pairs:
        w, x = ball.words[g], letters[xi]
        assert bc.rho_left[g][xi] == sigma_rho(ext, w, x).coords(), (w, x)
        assert bc.q_left(g, xi) == sigma_q(ext, w, x).coords(), (w, x)
        assert bc.rho_right[xi][g] == sigma_rho(ext, x, w).coords(), (w, x)
        inv = ext.base.alphabet.inverse_word(w)
        assert ball.words[bc.inverse[g]] == ext.nf(inv), w


@pytest.mark.parametrize("stack_name", ["q8_stack", "modular16_stack", "dihedral_stack"])
def test_ball_labels_match_string_route(request, stack_name):
    stack = request.getfixturevalue(stack_name)
    ball = build_ball(stack.ext.base, 6)
    nletters = len(stack.ext.base.alphabet.letters)
    _check_tables(stack.ext, ball, itertools.product(range(len(ball)), range(nletters)))


def test_ball_labels_match_string_route_t1s_sample(t1s_stack):
    ball = t1s_stack.ball
    rng = random.Random(43)
    pairs = [(rng.randrange(len(ball)), rng.randrange(8)) for _ in range(2000)]
    _check_tables(t1s_stack.ext, ball, pairs)


# -- integer quasi-geodesic bounds ----------------------------------------


@pytest.mark.parametrize("presentation", [klein_presentation, dihedral_presentation])
def test_integer_qg_matches_fraction_formula(presentation):
    p = presentation()
    ball = build_ball(p, 6)
    for lam, nu in [(1, 0), (1, 4), (Fraction(3, 2), Fraction(1, 3))]:
        for n in range(7):
            for tup in itertools.product(p.alphabet.letters, repeat=n):
                w = "".join(tup)
                assert is_quasigeodesic(ball, w, Fraction(lam), Fraction(nu)) == (
                    qg_fraction(ball, w, lam, nu)
                ), (w, lam, nu)


# -- normal-form counts do not depend on the hash seed ------------------


def test_klein_L_normal_form_count_ignores_hash_seed():
    # every proxy word is reduced sooner or later, so the cache size alone
    # cannot tell; the number of normal-form calls can, and it varied with
    # the hash seed while lsig_step left a frozenset loop early
    script = (
        "import exteq.words as words\n"
        "from exteq.instances import default_language_spec, klein_presentation\n"
        "from exteq.lrational import build_L_automaton\n"
        "calls = []\n"
        "original = words.normal_form_with_log\n"
        "def counted(p, w):\n"
        "    calls.append(w)\n"
        "    return original(p, w)\n"
        "words.normal_form_with_log = counted\n"
        "p = klein_presentation()\n"
        "build_L_automaton(p, default_language_spec(p), 4, 6)\n"
        "print(len(calls), len(p._nf_cache))\n"
    )
    counts = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        )
        counts.append(out.stdout.split())
    assert counts[0] == counts[1] == counts[2]
