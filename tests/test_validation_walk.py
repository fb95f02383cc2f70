"""The pruned validation walk against the exhaustive reference walkers.

The reference walkers below enumerate every word of length <= R, test
each one for quasi-geodesicity by walking every subword on the ball and
evaluate every expected cocycle value by the string route.  The walk in
`lrational` must report exactly the same mismatches in the same order,
for each automaton whether it is walked alone or together with the
other families, and the integer cocycle tables it reads must agree with
the string route.
"""

import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from exteq import lrational, words
from exteq.automata import FSA, words_up_to
from exteq.errors import (
    BallTooSmall,
    ExtEqError,
    ResourceBound,
    SynthesisInconsistent,
    ValueSetUnstable,
)
from exteq.extension import BallCocycles, sigma_q, sigma_rho
from exteq.instances import (
    default_language_spec,
    dihedral_z,
    genus2_presentation,
    quaternion8,
)
from exteq.lrational import (
    KINDS,
    build_automata,
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    LanguageSpec,
    PredictorFamily,
    ValidationReport,
    _family_machine,
    _synthesize_graph,
    _walk,
)
from exteq.reduction import Pipeline
from exteq.words import build_ball

from conftest import string_route_value, walk_alone

SRC = Path(__file__).resolve().parent.parent / "src"


# -- the exhaustive reference -------------------------------------------


def qg_reference(ball, w, nu):
    """d(1, w') >= |w'| - nu for every subword w', each walked on the
    ball from the identity."""
    alpha = ball.presentation.alphabet
    for i in range(len(w)):
        cur = 0
        for j in range(i + 1, len(w) + 1):
            cur = ball.edges[cur][alpha.index(w[j - 1])]
            if ball.distances[cur] < (j - i) - nu:
                return False
    return True


def reference_validate_L(fsa, lspec, R, ball):
    alpha = lspec.presentation.alphabet
    mismatches = []
    frontier = [("", fsa.initial)]
    for _ in range(R + 1):
        nxt = []
        for w, s in frontier:
            expected = qg_reference(ball, w, lspec.nu)
            got = s in fsa.accepting
            if expected != got:
                mismatches.append(("membership", w, expected, got))
            for x in alpha.letters:
                if len(w) < R:
                    nxt.append((w + x, fsa.step(s, x)))
        frontier = nxt
    return ValidationReport(R, tuple(mismatches))


def reference_validate_family(fam, ext, R, ball):
    lspec = fam.lspec
    alpha = lspec.presentation.alphabet
    mismatches = []
    for w in words_up_to(alpha, R):
        in_L = qg_reference(ball, w, lspec.nu)
        s = fam.graph.run(w)
        got_live = s in fam.live
        if in_L != got_live:
            mismatches.append(("membership", w, in_L, got_live))
        elif in_L:
            for x in alpha.letters:
                expected = string_route_value(ext, fam.kind, w, x)
                got = fam.values[x][s]
                if expected != got:
                    mismatches.append(("value", w, x, expected, got))
    return ValidationReport(R, tuple(mismatches))


def _replace(fam, **changes):
    fields = dict(
        kind=fam.kind, ext=fam.ext, lspec=fam.lspec, graph=fam.graph,
        values=fam.values, value_sets=fam.value_sets,
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


_clean_references: dict = {}


def clean_references(stack_name, stack, R):
    """The reference reports of the stack's L (the left graph, judged on
    membership alone) and families, computed once per stack and radius."""
    key = (stack_name, R)
    if key not in _clean_references:
        _clean_references[key] = (
            reference_validate_L(stack.fpa.graph, stack.lspec, R, stack.ball),
            {
                kind: reference_validate_family(fam, stack.ext, R, stack.ball)
                for kind, fam in stack.fams.items()
            },
        )
    return _clean_references[key]


@pytest.mark.parametrize("stack_name,R", STACKS)
def test_good_stacks_match_reference(request, stack_name, R):
    stack = request.getfixturevalue(stack_name)
    ref_L, ref_fams = clean_references(stack_name, stack, R)
    new = walk_alone(stack.fpa.graph, R, stack.ball, stack.lspec)
    assert new == ref_L
    assert new.passed
    for kind in KINDS:
        fam = stack.fams[kind]
        new = walk_alone(fam, R, stack.ball)
        assert new == ref_fams[kind]
        assert new.passed


# -- one walk for the three families ---------------------------------------


def fused_reports(stack, R, fams):
    """The report of each family in KINDS, from one walk."""
    cocycles = BallCocycles(stack.ext, stack.ball)
    machines = [_family_machine(fams[kind], cocycles) for kind in KINDS]
    return dict(zip(KINDS, _walk(stack.lspec, R, stack.ball, machines)))


def member_word(fsa, n):
    """The first accepted word of length n, in letter order."""
    letters = fsa.alphabet.letters
    return next(
        w for w in map("".join, itertools.product(letters, repeat=n))
        if fsa.accepts(w)
    )


def drop_live_state(fsa, w):
    victim = fsa.run(w)
    assert victim in fsa.accepting
    return FSA(fsa.alphabet, fsa.transitions, fsa.initial, fsa.accepting - {victim})


def flip_value(fam, w, x):
    """The family with the value at w's state against x moved off by one
    in every coordinate, and the value it had."""
    s = fam.graph.run(w)
    assert s in fam.live
    row = list(fam.values[x])
    old, group = row[s], row[s].group
    row[s] = old + group.element([1] * group.rank, [1] * len(group.torsion))
    return _replace(fam, values=dict(fam.values, **{x: tuple(row)})), old


@pytest.mark.parametrize("stack_name,R", STACKS)
def test_fused_walk_matches_reference(request, stack_name, R):
    stack = request.getfixturevalue(stack_name)
    _, ref_fams = clean_references(stack_name, stack, R)
    assert fused_reports(stack, R, stack.fams) == ref_fams

    # faults in every machine at once: a dropped live state of L, the
    # left graph both left families share, a flipped value in each
    # family, and in the reversed family also the sink made live, so that
    # machine accepts words outside L below states where the others are
    # doomed
    letters = stack.ext.base.alphabet.letters
    left = stack.fpa.graph
    L = drop_live_state(left, member_word(left, 2))
    fams = {
        kind: flip_value(fam, member_word(L, 1), letters[-1])[0]
        for kind, fam in stack.fams.items()
    }
    for kind in (Q_LEFT, RHO_LEFT):
        fams[kind] = _replace(fams[kind], graph=L)
    rev = fams[RHO_RIGHT_REVERSED]
    sink = min(set(range(rev.graph.n_states)) - rev.live)
    fams[RHO_RIGHT_REVERSED] = _replace(
        rev,
        graph=FSA(
            rev.graph.alphabet, rev.graph.transitions, rev.graph.initial,
            rev.graph.accepting | {sink},
        ),
    )
    new_fams = fused_reports(stack, R, fams)
    for kind in KINDS:
        assert any(m[0] == "value" for m in new_fams[kind].mismatches)
        assert any(m[0] == "membership" for m in new_fams[kind].mismatches)
        assert new_fams[kind] == reference_validate_family(
            fams[kind], stack.ext, R, stack.ball
        )


def ball_element(ball, w):
    """The ball index of w, walked from the identity, or None once the
    walk leaves the ball."""
    letters = ball.presentation.alphabet.letters
    g = 0
    for x in w:
        g = ball.edges[g][letters.index(x)]
        if g is None:
            return None
    return g


def class_pairs(stack, R, cocycles):
    """The words of L up to length R, and the number of distinct (joint
    state, class) pairs among them, counted by brute force."""
    ball, graphs = stack.ball, [stack.fams[kind].graph for kind in KINDS]
    members = [
        w for w in words_up_to(stack.ext.base.alphabet, R)
        if qg_reference(ball, w, stack.lspec.nu)
    ]
    pairs = {
        (tuple(g.run(w) for g in graphs), cocycles.classes[ball_element(ball, w)])
        for w in members
    }
    return members, len(pairs)


def counted_machines(fams, cocycles, calls):
    """The families' machines, each check call counted in calls[kind]."""

    def counted(kind):
        graph, check, classes = _family_machine(fams[kind], cocycles)

        def counted_check(w, s, g):
            calls[kind] += 1
            return check(w, s, g)
        return graph, counted_check, classes

    return [counted(kind) for kind in KINDS]


def test_walk_checks_each_distinct_node_once(q8_stack):
    stack, R = q8_stack, 6
    cocycles = BallCocycles(stack.ext, stack.ball)
    members, pairs = class_pairs(stack, R, cocycles)
    calls = Counter()
    machines = counted_machines(stack.fams, cocycles, calls)
    assert all(r.passed for r in _walk(stack.lspec, R, stack.ball, machines))
    # every family is live on every word of L, so each checks every
    # distinct (joint state, class) pair once
    assert calls == {kind: pairs for kind in KINDS}
    assert pairs < len(members)

    # a wrong value at the state most words of L reach: the first pass
    # stops at the first mismatch, the second lists every word
    fpa = stack.fams[Q_LEFT]
    s, _ = Counter(fpa.graph.run(w) for w in members).most_common(1)[0]
    victim = next(w for w in members if fpa.graph.run(w) == s)
    fams = dict(stack.fams)
    fams[Q_LEFT], _ = flip_value(fpa, victim, stack.ext.base.alphabet.letters[-1])
    calls.clear()
    machines = counted_machines(fams, cocycles, calls)
    reports = dict(zip(KINDS, _walk(stack.lspec, R, stack.ball, machines)))
    expected = reference_validate_family(fams[Q_LEFT], stack.ext, R, stack.ball)
    assert reports[Q_LEFT] == expected
    assert len(expected.mismatches) == sum(fpa.graph.run(w) == s for w in members)
    assert all(reports[kind].passed for kind in (RHO_LEFT, RHO_RIGHT_REVERSED))
    assert len(members) < calls[Q_LEFT] <= len(members) + pairs


def test_t1s_walk_checks_few_classes(t1s_stack):
    # 22,289 ball elements fall into few classes, and each family checks
    # each (joint state, class) pair once
    stack, R = t1s_stack, 5
    calls = Counter()
    machines = counted_machines(stack.fams, stack.cocycles, calls)
    assert all(r.passed for r in _walk(stack.lspec, R, stack.ball, machines))
    assert 0 < sum(calls.values()) <= 1_000


@pytest.mark.parametrize(
    "stack_name,R",
    [("q8_stack", 6), ("modular16_stack", 6), ("dihedral_stack", 7), ("t1s_stack", 4)],
)
def test_membership_is_one_distance(request, stack_name, R):
    # a subword's deficiency is at most its word's: every subword is
    # quasi-geodesic iff the word is
    stack = request.getfixturevalue(stack_name)
    ball, nu = stack.ball, stack.lspec.nu
    for w in words_up_to(stack.ext.base.alphabet, R):
        one = ball.distances[ball_element(ball, w)] >= len(w) - nu
        assert qg_reference(ball, w, nu) == one, w


def test_t1s_walk_memory_is_bounded(t1s_stack):
    # the last level, most of the words, is judged as it is generated and
    # kept in no frontier
    stack, R = t1s_stack, 5
    machines = [_family_machine(stack.fams[kind], stack.cocycles) for kind in KINDS]
    _walk(stack.lspec, R, stack.ball, machines)  # fills the lazy row tables
    tracemalloc.start()
    try:
        reports = _walk(stack.lspec, R, stack.ball, machines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 2 * 2**20


def _sequential_build(ext, R):
    """Pipeline.build's families built and validated one at a time: the
    graph, then its three families in KINDS order, each walked alone and
    judged before the next."""
    lspec = default_language_spec(ext.base)
    ball = build_ball(ext.base, R)
    cocycles = BallCocycles(ext, ball)
    graph, reps = lrational._synthesize_graph(lspec)
    at = lrational._rep_elements(ext, graph, reps, cocycles)
    for kind in KINDS:
        fam = lrational._family(ext, kind, lspec, graph, at, cocycles)
        report = walk_alone(fam, R, ball, cocycles=cocycles)
        lrational._raise_for_family(fam, report)


def _first_error(build):
    with pytest.raises(ExtEqError) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "faults,error",
    [
        ({"L"}, SynthesisInconsistent),
        ({Q_LEFT}, SynthesisInconsistent),
        ({RHO_LEFT}, SynthesisInconsistent),
        ({RHO_RIGHT_REVERSED}, SynthesisInconsistent),
        ({"L", Q_LEFT, RHO_LEFT, RHO_RIGHT_REVERSED}, SynthesisInconsistent),
        ({RHO_LEFT, RHO_RIGHT_REVERSED}, SynthesisInconsistent),
        ({("unstable", Q_LEFT)}, ValueSetUnstable),
        ({("unstable", RHO_RIGHT_REVERSED)}, ValueSetUnstable),
        ({RHO_LEFT, ("unstable", RHO_RIGHT_REVERSED)}, SynthesisInconsistent),
        ({("cap", RHO_LEFT)}, ResourceBound),
        ({"L", ("cap", Q_LEFT)}, ResourceBound),
        ({Q_LEFT, ("cap", RHO_LEFT)}, ResourceBound),
    ],
    ids=lambda v: "+".join(sorted(map(str, v))) if isinstance(v, set) else v.__name__,
)
def test_pipeline_build_raises_as_sequential_builds(monkeypatch, faults, error):
    # ("cap", kind): the graph, which that kind's family has, exceeds the
    # cap; "L": the graph misses a live state
    synthesize_graph = lrational._synthesize_graph
    family_on = lrational._family

    def graph(lspec):
        if any(("cap", kind) in faults for kind in KINDS):
            raise ResourceBound("signature space exceeds cap")
        fsa, reps = synthesize_graph(lspec)
        if "L" in faults:
            fsa = drop_live_state(fsa, member_word(fsa, 2))
        return fsa, reps

    def family(ext, kind, lspec, graph, at, cocycles):
        fam = family_on(ext, kind, lspec, graph, at, cocycles)
        x = ext.base.alphabet.letters[-1]
        if kind in faults:
            fam, _ = flip_value(fam, "t", x)
        if ("unstable", kind) in faults:
            # the value validation finds was never observed
            fam, true = flip_value(fam, "s", x)
            kept = tuple(a for a in fam.value_sets[x] if a != true)
            fam = _replace(fam, value_sets=dict(fam.value_sets, **{x: kept}))
        return fam

    monkeypatch.setattr(lrational, "_synthesize_graph", graph)
    monkeypatch.setattr(lrational, "_family", family)
    expected = _first_error(lambda: _sequential_build(quaternion8(), 6))
    assert expected[0] is error
    got = _first_error(lambda: Pipeline.build(quaternion8(), kappa2=2, R_validate=6))
    assert got == expected


def test_small_radii_match_reference(dihedral_stack, q8_stack):
    for stack in (dihedral_stack, q8_stack):
        for R in range(4):
            # the cocycle tables need a ball of radius >= 1
            ball = build_ball(stack.ext.base, max(R, 1))
            L = stack.fpa.graph
            assert walk_alone(L, R, ball, stack.lspec) == (
                reference_validate_L(L, stack.lspec, R, ball)
            )
            for fam in stack.fams.values():
                new = walk_alone(fam, R, ball)
                assert new == reference_validate_family(fam, stack.ext, R, ball)
                assert new.passed


def test_ball_without_prefix_closed_normal_forms_is_refused(q8_stack):
    # the cocycle tables recurse along prefix chains: a ball whose normal
    # form at some index is not its parent's edge by its last letter has
    # no tables, and the refusal names the word
    ball = build_ball(q8_stack.ext.base, 5)
    words = list(ball.words)
    words[1], words[2] = words[2], words[1]
    unchained = dataclasses.replace(ball, words=words)
    with pytest.raises(ValueError, match=re.escape(repr(words[1]))):
        walk_alone(q8_stack.fpa, 5, unchained)


@pytest.mark.parametrize("stack_name", ["q8_stack", "dihedral_stack"])
def test_blank_prediction_matches_reference(request, stack_name):
    # a live state predicting no value is wrong against every letter
    stack = request.getfixturevalue(stack_name)
    fam = stack.fams[Q_LEFT]
    s = fam.graph.run("s")
    blank = {x: v[:s] + (None,) + v[s + 1 :] for x, v in fam.values.items()}
    broken = _replace(fam, values=blank)
    new = walk_alone(broken, 5, stack.ball)
    assert new.mismatches
    assert new == reference_validate_family(broken, stack.ext, 5, stack.ball)


@pytest.mark.parametrize("kind", KINDS)
def test_non_closed_dead_set_matches_reference(q8_stack, kind):
    # a live state turned non-live still reaches live states, so the walk
    # must not prune below it
    fam = q8_stack.fams[kind]
    victim = fam.graph.run("st")
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
        new = walk_alone(broken, R, ball)
        assert new.mismatches
        assert new == reference_validate_family(broken, q8_stack.ext, R, ball)
        new_L = walk_alone(graph, R, ball, fam.lspec)
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
        new = walk_alone(broken, 5, stack.ball)
        assert any(m[0] == "value" for m in new.mismatches)
        assert new == reference_validate_family(broken, stack.ext, 5, stack.ball)


def test_narrow_genus2_window_matches_reference():
    # the scheme test_bad_scheme_is_rejected rejects: membership mismatches
    # appear at radius 5 and must come out in the same order
    p = genus2_presentation()
    lspec = LanguageSpec(p, nu=0, window=1)
    fsa, _ = _synthesize_graph(lspec)
    ball = build_ball(p, 5)
    new = walk_alone(fsa, 5, ball, lspec)
    assert new.mismatches
    assert new == reference_validate_L(fsa, lspec, 5, ball)


# -- the family values come from the tables ---------------------------------


def test_representative_outside_the_ball_is_refused():
    # dihedral_z's live states have representatives of up to 2 letters,
    # and its ball of radius 1 holds none of 2 letters
    ext = dihedral_z()
    lspec = default_language_spec(ext.base)
    graph, reps = lspec.graph
    ball = build_ball(ext.base, 1)
    outside = [
        reps[s] for s in sorted(graph.accepting) if ball_element(ball, reps[s]) is None
    ]
    assert outside
    with pytest.raises(BallTooSmall, match=re.escape(repr(outside[0]))):
        build_automata(ext, lspec, 1, BallCocycles(ext, ball))


def test_radius_zero_build_reads_its_values_in_the_ball():
    # the ball reaches every representative, so a build validated to
    # radius 0 has the values of the default build
    zero = Pipeline.build(quaternion8(), kappa2=2, R_validate=0)
    six = Pipeline.build(quaternion8(), kappa2=2, R_validate=6)
    assert zero.ball.radius == 6
    assert (zero.F.validated_radius, six.F.validated_radius) == (0, 6)
    assert dataclasses.replace(zero.F, validated_radius=6) == six.F
    assert (zero.D.fsa, zero.D.states) == (six.D.fsa, six.D.states)


def test_tables_are_cross_checked_with_the_string_route():
    # one altered rho-left row puts the element of a representative in a
    # class of its own whose tables the string route contradicts
    ext = quaternion8()
    lspec = default_language_spec(ext.base)
    graph, reps = lspec.graph
    w = reps[graph.step(graph.initial, "s")]
    cocycles = BallCocycles(ext, build_ball(ext.base, 6))
    g = ball_element(cocycles.ball, w)
    row = cocycles.rho_left[g]
    bumped = tuple((a + 1) % m if m else a + 1 for a, m in zip(row[0], cocycles.mods))
    cocycles.rho_left[g] = (bumped,) + row[1:]
    with pytest.raises(SynthesisInconsistent, match=f"at {w!r} against"):
        build_automata(ext, lspec, 6, cocycles)
    # on Q8 a state fixes the element, so the walk alone finds no mismatch
    at = [
        ball_element(cocycles.ball, reps[s]) if s in graph.accepting else None
        for s in range(graph.n_states)
    ]
    fams = [lrational._family(ext, kind, lspec, graph, at, cocycles) for kind in KINDS]
    machines = [_family_machine(fam, cocycles) for fam in fams]
    assert all(r.passed for r in _walk(lspec, 6, cocycles.ball, machines))


def test_q8_build_reduces_few_words(monkeypatch):
    # the string route runs once per class of the representatives'
    # elements, not at every (live state, letter); a build that read its
    # values by the string route sent 157 words to the reducer
    calls = []
    reduce = words._reduce_with_log

    def counted(p, w):
        calls.append(w)
        return reduce(p, w)

    monkeypatch.setattr(words, "_reduce_with_log", counted)
    Pipeline.build(quaternion8(), kappa2=2, R_validate=6)
    assert 0 < len(calls) <= 40


# -- the integer cocycle tables equal the string route ------------------


def _check_tables(ext, ball, pairs):
    bc = BallCocycles(ext, ball)
    letters = ext.base.alphabet.letters
    for g, xi in pairs:
        w, x = ball.words[g], letters[xi]
        assert bc.rho_left[g][xi] == sigma_rho(ext, w, x).coords(), (w, x)
        assert bc.q_left_row(g)[xi] == sigma_q(ext, w, x).coords(), (w, x)
        assert bc.rho_right[g][xi] == sigma_rho(ext, x, w).coords(), (w, x)
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


# -- normal-form counts do not depend on the hash seed ------------------


def test_klein_L_normal_form_count_ignores_hash_seed():
    # every proxy word is reduced sooner or later, so the cache size alone
    # cannot tell; the number of normal-form calls can, and it varied with
    # the hash seed while lsig_step left a frozenset loop early
    script = (
        "import exteq.words as words\n"
        "from exteq.instances import default_language_spec, quaternion8\n"
        "from exteq.extension import BallCocycles\n"
        "from exteq.lrational import build_automata\n"
        "calls = []\n"
        "original = words.normal_form_with_log\n"
        "def counted(p, w):\n"
        "    calls.append(w)\n"
        "    return original(p, w)\n"
        "words.normal_form_with_log = counted\n"
        "ext = quaternion8()\n"
        "p = ext.base\n"
        "ball = words.build_ball(p, 6)\n"
        "build_automata(ext, default_language_spec(p), 6, BallCocycles(ext, ball))\n"
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
