"""automata.explore and the automata built through it, against the
breadth-first loops they replaced.

`reference_ppa` and `reference_ab_graph` are those loops: each numbers
the sink as state 1 before the search starts, where `explore` numbers it
where the search first reaches it.  A new automaton and its reference
must therefore agree under the bijection that follows the same words
from both initial states, with the same labels and the same accepting
states.
"""

from collections import deque
from dataclasses import replace

import pytest

from exteq.abelian import pa
from exteq.automata import FSA, explore
from exteq.errors import AccumulatorBound, ResourceBound
from exteq.extension import sigma_rho
from exteq.fpa_ppa import build_ppa
from exteq.lrational import _synthesize_graph
from exteq.reduction import (
    _ab_graph,
    _accumulator,
    build_Lb_automaton,
    build_Le_automaton,
)
from exteq.words import Alphabet, state_cap

from conftest import language_equal

STACKS = ["q8_stack", "modular16_stack", "dihedral_stack", "t1s_stack"]


# -- the loops explore replaced --------------------------------------------


def reference_ppa(M1, M2, ext, cap):
    """The PPA with its sink pre-registered at state 1: (states, FSA)."""
    alpha = M1.graph.alphabet
    sigma_xx = {x: pa(sigma_rho(ext, x, alpha.inverse[x])) for x in alpha.letters}
    start = (M1.graph.initial, M2.graph.initial, ext.kernel.parity().zero())
    states = [start, None]
    index = {start: 0}
    rows = [[], []]
    sink_index = 1
    queue = deque([0])
    while queue:
        i = queue.popleft()
        s1, s2, b = states[i]
        live = s1 in M1.live and s2 in M2.live
        # the predictors must agree about membership
        assert live or (s1 in M1.live) == (s2 in M2.live), i
        row = []
        for x in alpha.letters:
            if not live:
                row.append(sink_index)
                continue
            b2 = b + sigma_xx[x] + pa(-M1.a_of(s1, x) - M2.a_of(s2, alpha.inverse[x]))
            nxt = (M1.graph.step(s1, x), M2.graph.step(s2, x), b2)
            j = index.get(nxt)
            if j is None:
                if len(states) >= cap:
                    raise ResourceBound(f"parity automaton exceeds cap {cap}")
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                rows.append([])
                queue.append(j)
            row.append(j)
        rows[i] = row
    rows[sink_index] = [sink_index] * len(alpha.letters)
    accepting = frozenset(
        i
        for i, st in enumerate(states)
        if st is not None and st[0] in M1.live and st[1] in M2.live
    )
    return states, FSA(alpha, tuple(tuple(r) for r in rows), 0, accepting)


def reference_ab_graph(F, sprime, cap):
    """The accumulator graph with its sink pre-registered at state 1:
    (states, rows, sorted A-set)."""
    letters = F.graph.alphabet.letters
    start = (sprime, F.graph.initial, F.ext.pushout_kernel.zero())
    states = [start, None]
    index = {start: 0}
    rows = [[], [1] * len(letters)]
    values = set()
    queue = deque([0])
    while queue:
        i = queue.popleft()
        cur, icur, acc = states[i]
        if cur in F.live:
            values.add(acc)
        dead = cur not in F.live or icur not in F.live
        row = []
        for x in letters:
            if dead:
                row.append(1)
                continue
            acc2 = acc + F.a_of(cur, x) - F.a_of(icur, x)
            nxt = (F.graph.step(cur, x), F.graph.step(icur, x), acc2)
            j = index.get(nxt)
            if j is None:
                if len(states) >= cap:
                    raise AccumulatorBound(f"accumulator graph exceeds cap {cap}")
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                rows.append([])
                queue.append(j)
            row.append(j)
        rows[i] = row
    return states, rows, sorted(values, key=lambda a: a.coords())


def bfs_bijection(rows, ref_rows):
    """The map from each state of `rows` to the state of `ref_rows` that
    the same words reach from state 0, checked to be a bijection onto
    every reference state but possibly an unreachable sink at 1."""
    phi = {0: 0}
    order = [0]
    for i in order:  # grows as the loop runs
        for j, k in zip(rows[i], ref_rows[phi[i]]):
            if j in phi:
                assert phi[j] == k, (i, j, k)
            else:
                phi[j] = k
                order.append(j)
    assert len(phi) == len(rows)
    assert len(set(phi.values())) == len(phi)
    assert set(range(len(ref_rows))) - set(phi.values()) <= {1}
    return phi


def parent_numbered_rfpa(F):
    """F renumbered as the letter-inverted tape numbered it: breadth-first
    from the initial state, letters in the order of their inverses.
    Returns (that family, F's state -> its state)."""
    G = F.graph
    alpha = G.alphabet
    order = sorted(alpha.letters, key=lambda x: alpha.index(alpha.inverse[x]))
    new = {G.initial: 0}
    old = [G.initial]
    for s in old:  # grows as the loop runs
        for x in order:
            t = G.step(s, x)
            if t not in new:
                new[t] = len(old)
                old.append(t)
    rows = tuple(tuple(new[t] for t in G.transitions[s]) for s in old)
    graph = FSA(alpha, rows, 0, frozenset(new[s] for s in G.accepting))
    values = {x: tuple(v[s] for s in old) for x, v in F.values.items()}
    return replace(F, graph=graph, values=values, memo={}), new


# -- explore ---------------------------------------------------------------

AB = Alphabet.from_generators(["a", "b"])


def count_to(n):
    """a counts up to n, then falls into the sink; the other letters stay."""
    return lambda k, x: (None if k + 1 > n else k + 1) if x == "a" else k


def test_explore_numbers_sink_where_first_reached():
    states, rows = explore(AB, 0, count_to(2))
    assert states == [0, 1, 2, None]
    assert rows == ((1, 0, 0, 0), (2, 1, 1, 1), (3, 2, 2, 2), (3, 3, 3, 3))
    states, rows = explore(AB, 0, lambda k, x: k)
    assert states == [0] and rows == ((0, 0, 0, 0),)


def test_explore_cap(monkeypatch):
    monkeypatch.setenv("EXTEQ_CAP_STATES", "4")
    assert len(explore(AB, 0, count_to(2))[0]) == 4
    monkeypatch.setenv("EXTEQ_CAP_STATES", "3")
    with pytest.raises(ResourceBound, match="^automaton exceeds cap 3$"):
        explore(AB, 0, count_to(2))
    monkeypatch.setenv("EXTEQ_CAP_STATES", "2")
    with pytest.raises(AccumulatorBound, match="^graph exceeds cap 2$"):
        explore(AB, 0, count_to(2), AccumulatorBound, "graph")


# -- the automata built through it ---------------------------------------


@pytest.mark.parametrize("stack_name", STACKS)
def test_ppa_matches_reference(request, stack_name):
    stack = request.getfixturevalue(stack_name)
    D = stack.ppa
    M2, rfpa_state = parent_numbered_rfpa(stack.rfpa)
    assert language_equal(M2.graph, stack.rfpa.graph)
    ref_states, ref = reference_ppa(stack.lfpa, M2, stack.ext, state_cap())
    phi = bfs_bijection(D.fsa.transitions, ref.transitions)
    assert {phi[i] for i in D.fsa.accepting} == ref.accepting
    for i, st in enumerate(D.states):
        mapped = None if st is None else (st[0], rfpa_state[st[0]], st[1])
        assert mapped == ref_states[phi[i]], i
    assert D.branch_values() == sorted(
        {ref_states[i][2] for i in ref.accepting}, key=lambda p: p.coords()
    )


@pytest.mark.parametrize("stack_name", STACKS)
def test_ab_graphs_match_reference(request, stack_name):
    F = request.getfixturevalue(stack_name).fpa
    for sprime in sorted(F.live):
        graph = _ab_graph(F, sprime)
        ref_states, ref_rows, ref_values = reference_ab_graph(F, sprime, state_cap())
        phi = bfs_bijection(graph.rows, ref_rows)
        for i, st in enumerate(graph.states):
            assert st == ref_states[phi[i]], (sprime, i)
        assert list(graph.values) == ref_values
        for b in graph.values:
            Lb = build_Lb_automaton(F, sprime, "", b)
            assert {phi[i] for i in Lb.accepting} == {
                j
                for j, st in enumerate(ref_states)
                if st is not None and st[0] in F.live and st[2] == b
            }


def test_constructions_keep_their_cap_errors(q8_stack, monkeypatch):
    # each construction succeeds at its own size and raises its own
    # error, naming the cap, one state below it; each reads the cap from
    # EXTEQ_CAP_STATES
    F, ext = q8_stack.fpa, q8_stack.ext
    sprime = max(F.live, key=lambda s: len(_ab_graph(F, s).states))
    builds = [
        (ResourceBound, "signature space",
         lambda: _synthesize_graph(F.lspec)[0].n_states),
        (AccumulatorBound, "accumulator graph",
         lambda: len(_accumulator(replace(F, memo={}), sprime, "").states)),
        (ResourceBound, "parity automaton",
         lambda: build_ppa(q8_stack.lfpa, q8_stack.rfpa).fsa.n_states),
        (ResourceBound, "representative automaton",
         lambda: build_Le_automaton(
             replace(F, memo={}), "st", q8_stack.ball
         ).n_states),
    ]
    for error, what, build in builds:
        monkeypatch.delenv("EXTEQ_CAP_STATES", raising=False)
        n = build()
        monkeypatch.setenv("EXTEQ_CAP_STATES", str(n))
        assert build() == n
        monkeypatch.setenv("EXTEQ_CAP_STATES", str(n - 1))
        with pytest.raises(error, match=f"^{what} exceeds cap {n - 1}$"):
            build()


def test_ppa_disagreeing_predictors_raise(q8_stack):
    # the PPA runs one graph: an RFPA on another graph is refused, here
    # one whose initial state is live but whose s-successor is not
    rfpa = q8_stack.rfpa
    G = rfpa.graph
    victim = G.step(G.initial, "s")
    graph = FSA(G.alphabet, G.transitions, G.initial, G.accepting - {victim})
    with pytest.raises(ValueError, match="^LFPA and RFPA on different graphs$"):
        build_ppa(q8_stack.lfpa, replace(rfpa, graph=graph, memo={}))
    # an equal copy of the graph is the same graph
    copy = FSA(G.alphabet, G.transitions, G.initial, frozenset(G.accepting))
    D = build_ppa(q8_stack.lfpa, replace(rfpa, graph=copy, memo={}))
    assert D.fsa == q8_stack.ppa.fsa and D.states == q8_stack.ppa.states
