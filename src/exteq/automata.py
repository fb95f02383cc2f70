"""Deterministic finite automata and the constructions the pipeline needs:
breadth-first exploration of a reachable state set, restricted accepting
sets, co-accessibility and bounded enumeration.

All automata are complete DFAs; partiality is encoded by an ordinary state
whose language happens to be empty (a sink).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ResourceBound, UnknownState
from .words import Alphabet, Word, state_cap


@dataclass(frozen=True)
class FSA:
    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]  # [state][letter index] -> state
    initial: int
    accepting: frozenset[int]

    def __post_init__(self):
        n = len(self.transitions)
        width = len(self.alphabet.letters)
        for row in self.transitions:
            if len(row) != width or (row and (min(row) < 0 or max(row) >= n)):
                raise ValueError("transition table not total over the states")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if not set(self.accepting) <= set(range(n)):
            raise ValueError("accepting set out of range")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, letter: str) -> int:
        return self.transitions[state][self.alphabet.index(letter)]

    def run(self, w: Word, start: Optional[int] = None) -> int:
        state = self.initial if start is None else start
        if not 0 <= state < self.n_states:
            raise UnknownState(f"state {state} out of range")
        for x in w:
            state = self.transitions[state][self.alphabet.index(x)]
        return state

    def accepts(self, w: Word) -> bool:
        return self.run(w) in self.accepting


def explore(
    alphabet: Alphabet, start, step, error=ResourceBound, what="automaton"
) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """The states reachable from `start` under step(state, letter).

    Returns (states, rows): states in breadth-first discovery order,
    letters taken in alphabet order, and rows[i][k] the index of the
    state reached from states[i] by the k-th letter.  None is an ordinary
    state, the sink: it is numbered where first reached and steps to
    itself without calling `step`.  Discovering a state beyond the cap
    state_cap() raises `error`, "{what} exceeds cap {cap}".
    """
    cap = state_cap()
    letters = alphabet.letters
    index = {start: 0}
    states = [start]
    rows = []
    for cur in states:  # grows as the loop runs
        if cur is None:
            rows.append((index[None],) * len(letters))
            continue
        row = []
        for x in letters:
            nxt = step(cur, x)
            j = index.get(nxt)
            if j is None:
                if len(states) >= cap:
                    raise error(f"{what} exceeds cap {cap}")
                j = index[nxt] = len(states)
                states.append(nxt)
            row.append(j)
        rows.append(tuple(row))
    return states, tuple(rows)


def restrict_accepting(M: FSA, states: Iterable[int]) -> FSA:
    states = frozenset(states)
    if not states <= set(range(M.n_states)):
        raise UnknownState("accepting restriction outside the state set")
    return FSA(M.alphabet, M.transitions, M.initial, states)


def coaccessible(M: FSA) -> set[int]:
    """States from which some accepting state is reachable."""
    back = [[] for _ in range(M.n_states)]
    for s, row in enumerate(M.transitions):
        for t in row:
            back[t].append(s)
    alive = set(M.accepting)
    queue = deque(alive)
    while queue:
        s = queue.popleft()
        for p in back[s]:
            if p not in alive:
                alive.add(p)
                queue.append(p)
    return alive


def words_up_to(alphabet: Alphabet, maxlen: int):
    """All words of length <= maxlen in shortlex order."""
    frontier = [""]
    for _ in range(maxlen + 1):
        for w in frontier:
            yield w
        frontier = [w + x for w in frontier for x in alphabet.letters]
