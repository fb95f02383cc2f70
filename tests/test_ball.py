"""The Cayley ball against the reduce-every-edge construction.

`build_ball` reduces only the edges where a rewrite key can apply; the
reference below sends every edge through the reducer as it was when it
logged each relator application with its position, and sums the log
per relator.  Both must give the same ball, field for field.  On a cold
cache `build_ball` adds one normal-form cache entry per reduced edge,
each the reference's result for the same word, and nothing for the edges
it resolves without reducing.
"""

import tracemalloc
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import free_presentation, log_counts, reference_reduce_with_log
from exteq import words
from exteq.errors import ResourceBound
from exteq.instances import (
    dihedral_z,
    genus2_presentation,
    klein_presentation,
    modular16,
    quaternion8,
    t1s,
)
from exteq.words import (
    Alphabet,
    CayleyBall,
    Presentation,
    build_ball,
    normal_form_with_log,
    state_cap,
)


def reference_build_ball(p: Presentation, R: int) -> tuple[CayleyBall, dict]:
    """BFS enumeration of the ball, every edge through the reference
    reducer, each element's link looked up from its normal form; also
    returns each edge word's (normal form, counts)."""
    cap = state_cap()
    reduced = {}
    words_ = [""]
    index = {"": 0}
    distances = [0]
    edges: list[tuple[Optional[int], ...]] = []
    logs: list[tuple[tuple[int, ...], ...]] = []
    links = []
    frontier = [0]
    for dist in range(R + 1):
        nxt_frontier = []
        for i in frontier:
            w = words_[i]
            row: list[Optional[int]] = []
            row_logs = []
            for x in p.alphabet.letters:
                nf, log = reference_reduce_with_log(p, w + x)
                reduced[w + x] = nf, log_counts(p, log)
                row_logs.append(reduced[w + x][1])
                j = index.get(nf)
                if j is None and dist < R:
                    if len(words_) >= cap:
                        raise ResourceBound(f"ball exceeds cap {cap}")
                    j = len(words_)
                    index[nf] = j
                    words_.append(nf)
                    distances.append(dist + 1)
                    nxt_frontier.append(j)
                    links.append((p.alphabet.index(nf[-1]), index.get(nf[:-1])))
                row.append(j)
            edges.append(tuple(row))
            logs.append(tuple(row_logs))
        frontier = nxt_frontier
    n_edges = len(edges) * len(p.alphabet.letters)
    ball = CayleyBall(p, R, words_, index, distances, edges, logs, n_edges, links)
    return ball, reduced


def _fields(ball: CayleyBall) -> tuple:
    return (
        ball.radius,
        ball.words,
        ball.index,
        ball.distances,
        ball.edges,
        ball.logs,
        ball.links,
    )


def _fresh(p: Presentation) -> Presentation:
    """The same presentation with an empty normal-form cache."""
    return Presentation(p.alphabet, p.relators, p.delta, p.sc_fraction)


def _assert_same_as_reference(p: Presentation, R: int):
    got_p = _fresh(p)
    try:
        ball = build_ball(got_p, R)
    except ResourceBound as e:
        with pytest.raises(ResourceBound) as raised:
            reference_build_ball(_fresh(p), R)
        assert str(raised.value) == str(e)
        return
    reference, reduced = reference_build_ball(_fresh(p), R)
    assert _fields(ball) == _fields(reference)
    cache = got_p._nf_cache
    assert len(cache) == ball.reduced_edges
    assert all(cache[w] == reduced[w] for w in cache)


BUNDLED = {
    "t1s-R5": (lambda: t1s().base, 5),
    "quaternion8-R7": (lambda: quaternion8().base, 7),
    "modular16-R7": (lambda: modular16().base, 7),
    "dihedral_z-R8": (lambda: dihedral_z().base, 8),
    "klein-R4": (klein_presentation, 4),
    "genus2-R4": (genus2_presentation, 4),
    "free2-R4": (free_presentation, 4),
}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_ball_and_cache_equal_reference_on_bundled(name):
    make, R = BUNDLED[name]
    _assert_same_as_reference(make(), R)


def test_ball_on_warm_cache_equals_reference():
    # a cache already filled by the reducer on every edge is left as it was
    p = genus2_presentation()
    ball, reduced = reference_build_ball(p, 3)
    for w in reduced:
        normal_form_with_log(p, w)
    cache = list(p._nf_cache.items())
    assert _fields(build_ball(p, 3)) == _fields(ball)
    assert list(p._nf_cache.items()) == cache


@st.composite
def presentations(draw):
    n = draw(st.integers(2, 3))
    gens = "abc"[:n]
    involutive = draw(st.sets(st.sampled_from(gens), max_size=1))
    alpha = Alphabet.from_generators(list(gens), involutive)
    relators = []
    for _ in range(draw(st.integers(0, 3))):
        w = alpha.free_reduce(
            "".join(draw(st.lists(st.sampled_from(alpha.letters), min_size=1, max_size=8)))
        )
        while w and w[0] == alpha.inverse[w[-1]]:
            w = w[1:-1]
        if w and w not in relators:
            relators.append(w)
    return Presentation(alpha, tuple(relators))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(presentations(), st.integers(0, 4))
def test_ball_and_cache_equal_reference_on_generated(p, R):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("EXTEQ_CAP_STATES", "3000")
        _assert_same_as_reference(p, R)


def test_ball_cap_raises_as_reference(monkeypatch):
    p = genus2_presentation()
    n = len(build_ball(p, 3))
    for cap in (1, 2, 9, n - 1, n):
        monkeypatch.setenv("EXTEQ_CAP_STATES", str(cap))
        _assert_same_as_reference(p, 3)
    monkeypatch.setenv("EXTEQ_CAP_STATES", str(n - 1))
    with pytest.raises(ResourceBound):
        build_ball(_fresh(p), 3)
    monkeypatch.setenv("EXTEQ_CAP_STATES", str(n))
    build_ball(_fresh(p), 3)


def test_swap_closure_cap_raises_as_reference(monkeypatch):
    monkeypatch.setattr(words, "_SWAP_CLOSURE_CAP", 0)
    p = genus2_presentation()
    _assert_same_as_reference(p, 5)
    with pytest.raises(ResourceBound, match="swap closure"):
        build_ball(_fresh(p), 5)


def test_t1s_ball_reduces_few_edges(monkeypatch):
    calls = []
    reduce = words._reduce_with_log

    def counted(p, w):
        calls.append(w)
        return reduce(p, w)

    monkeypatch.setattr(words, "_reduce_with_log", counted)
    ball = build_ball(t1s().base, 5)
    assert len(ball) * len(ball.presentation.alphabet.letters) == 178_312
    assert len(calls) == 1_616 == ball.reduced_edges


def test_t1s_ball_memory_is_bounded():
    # the ball is the one store of its fast edges: no normal-form cache
    # entry, one tuple row per element, one shared row of zero logs
    p = _fresh(t1s().base)
    tracemalloc.start()
    try:
        ball = build_ball(p, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ball) == 22_289
    assert peak < 10 * 2**20
    assert len({id(row) for row in ball.logs}) <= ball.reduced_edges + 1
