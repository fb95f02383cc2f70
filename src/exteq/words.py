"""Words over symmetric alphabets, group presentations and word-problem engines.

Words are plain strings; each letter is one character and the alphabet's
involution gives its formal inverse (by convention uppercase inverts
lowercase, but any fixed-point-free or order-2 pairing is allowed).
Equality in a presented group is decided by a rewriting engine that
counts the relators it applies:
greedy replacement of over-half relator subwords by their shorter
complements, plus a breadth-first search over equal-length half-relator
swaps for presentations where pure shortening is not confluent.  Each
presentation compiles its rewrite keys once; the Cayley ball reads each
last-level element's back edge from the links it records.
"""

from __future__ import annotations

import os
import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .errors import AlphabetMismatch, ExtEqError, ResourceBound

Word = str

DEFAULT_STATE_CAP = 200_000


def state_cap() -> int:
    """Global cap on enumerated states/elements: EXTEQ_CAP_STATES, an
    integer >= 1, or the default when it is unset or empty."""
    raw = os.environ.get("EXTEQ_CAP_STATES")
    if not raw:
        return DEFAULT_STATE_CAP
    if not raw.isdecimal() or int(raw) < 1:
        raise ExtEqError(f"EXTEQ_CAP_STATES must be an integer >= 1, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class Alphabet:
    """Ordered symmetric alphabet with a formal-inverse involution.

    `position[x]` is the index of letter x in `letters`; `index` reads
    it and rejects a letter outside the alphabet."""

    letters: tuple[str, ...]
    inverse: dict[str, str] = field(compare=False)

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters")
        for x in self.letters:
            if len(x) != 1:
                raise ValueError("letters must be single characters")
            y = self.inverse.get(x)
            if y is None or y not in self.letters:
                raise ValueError(f"involution not defined on {x!r}")
            if self.inverse[y] != x:
                raise ValueError(f"involution not an involution at {x!r}")
        object.__setattr__(
            self, "position", {x: i for i, x in enumerate(self.letters)}
        )

    @classmethod
    def from_generators(
        cls, generators: Iterable[str], involutive: Iterable[str] = ()
    ) -> "Alphabet":
        """Alphabet with letters g, g^-1 (uppercase) per generator.

        Generators listed in `involutive` are their own inverses and
        contribute a single letter.
        """
        involutive = set(involutive)
        letters: list[str] = []
        inverse: dict[str, str] = {}
        for g in generators:
            if len(g) != 1 or not g.islower():
                raise ValueError(f"generator must be a lowercase letter: {g!r}")
            if g in involutive:
                letters.append(g)
                inverse[g] = g
            else:
                letters.extend([g, g.upper()])
                inverse[g] = g.upper()
                inverse[g.upper()] = g
        return cls(tuple(letters), inverse)

    def index(self, x: str) -> int:
        try:
            return self.position[x]
        except KeyError:
            raise AlphabetMismatch(f"letter {x!r} not in alphabet") from None

    def check_word(self, w: Word) -> Word:
        for x in w:
            if x not in self.position:
                raise AlphabetMismatch(f"letter {x!r} not in alphabet")
        return w

    def inverse_word(self, w: Word) -> Word:
        return "".join(self.inverse[x] for x in reversed(w))

    def shortlex_key(self, w: Word):
        return (len(w), tuple(self.position[x] for x in w))

    def free_reduce(self, w: Word) -> Word:
        """Unique freely reduced word equal to w in the free group."""
        out: list[str] = []
        inv = self.inverse
        for x in w:
            if x not in self.position:
                raise AlphabetMismatch(f"letter {x!r} not in alphabet")
            if out and out[-1] == inv[x]:
                out.pop()
            else:
                out.append(x)
        return "".join(out)

    def is_freely_reduced(self, w: Word) -> bool:
        inv = self.inverse
        return all(w[i + 1] != inv[w[i]] for i in range(len(w) - 1))


def _rotations(w: Word):
    for j in range(len(w)):
        yield w[j:] + w[:j]


@dataclass(frozen=True)
class Presentation:
    """Group presentation with optional hyperbolicity / small-cancellation
    metadata."""

    alphabet: Alphabet
    relators: tuple[Word, ...]
    delta: Optional[Fraction] = None
    sc_fraction: Optional[Fraction] = None

    def __post_init__(self):
        for r in self.relators:
            self.alphabet.check_word(r)
            if not r:
                raise ValueError("empty relator")
            if not self.alphabet.is_freely_reduced(r):
                raise ValueError(f"relator {r!r} not freely reduced")
            if r[0] == self.alphabet.inverse[r[-1]]:
                raise ValueError(f"relator {r!r} not cyclically reduced")
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_nf_cache", {})
        # the count vector of every reduction that applies no relator
        object.__setattr__(self, "zero_counts", (0,) * len(self.relators))

    # -- symmetrized rewrite tables ------------------------------------

    def _build_tables(self):
        """Shortening table (over-half subword -> shorter complement) and
        swap table (exactly-half subword -> equal-length complement),
        both over all cyclic rotations of each relator and its inverse."""
        shorten: dict[str, tuple[str, int, int]] = {}
        swaps: dict[str, list[tuple[str, int, int]]] = {}
        for k, r in enumerate(self.relators):
            for sign, base in ((1, r), (-1, self.alphabet.inverse_word(r))):
                for c in _rotations(base):
                    n = len(c)
                    half = n // 2
                    for cut in range(half, n + 1):
                        u, rest = c[:cut], c[cut:]
                        v = self.alphabet.inverse_word(rest)
                        if len(v) < len(u):
                            shorten.setdefault(u, (v, k, sign))
                        elif len(v) == len(u) and v != u:
                            entry = (v, k, sign)
                            bucket = swaps.setdefault(u, [])
                            if entry not in bucket:
                                bucket.append(entry)
        max_len = max((len(u) for u in shorten), default=0)
        min_len = min((len(u) for u in shorten), default=0)
        swap_max = max((len(u) for u in swaps), default=0)
        tables = (shorten, swaps, max_len, min_len, swap_max)
        object.__setattr__(self, "_tables", tables)
        # compiled once: the leftmost shortening key, longest first; swap
        # key starts and lengths; letters to alphabet positions (shortlex)
        longest_first = "|".join(map(re.escape, sorted(shorten, key=len, reverse=True)))
        find = re.compile(longest_first).search if shorten else None
        starts = re.compile(f"(?=(?:{'|'.join(map(re.escape, swaps))}))").finditer
        lengths = sorted({len(u) for u in swaps}, reverse=True)
        order = str.maketrans({x: chr(i) for i, x in enumerate(self.alphabet.letters)})
        object.__setattr__(self, "_compiled", (find, starts, lengths, order))
        return tables

    @property
    def tables(self):
        return self._tables or self._build_tables()


@dataclass(frozen=True)
class SCReport:
    """Result of a small-cancellation check."""

    fraction: Fraction
    longest_piece: int
    violations: tuple[tuple[Word, int, int], ...]  # (piece, relator idx, |r|)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_small_cancellation(p: Presentation, fraction: Fraction) -> SCReport:
    """List every piece u with |u| >= fraction * |relator|.

    A piece is a word occurring as a prefix of the symmetrized relator set
    in at least two distinct ways; rotations of a single relator count as
    distinct occurrences even when the rotated words coincide, so proper
    powers such as a^3 fail as expected.
    """
    occurrences: dict[str, set[tuple[int, int, int]]] = {}
    lengths: dict[str, set[tuple[int, int]]] = {}
    for k, r in enumerate(p.relators):
        for sign, base in ((1, r), (-1, p.alphabet.inverse_word(r))):
            for j, c in enumerate(_rotations(base)):
                for cut in range(1, len(c) + 1):
                    u = c[:cut]
                    occurrences.setdefault(u, set()).add((k, sign, j))
                    lengths.setdefault(u, set()).add((k, len(r)))
    violations = []
    longest = 0
    for u, occ in occurrences.items():
        if len(occ) < 2:
            continue
        longest = max(longest, len(u))
        for k, rlen in sorted(lengths[u]):
            if Fraction(len(u)) >= fraction * rlen:
                violations.append((u, k, rlen))
    violations.sort(key=lambda t: (len(t[0]), t[0], t[1]))
    return SCReport(fraction, longest, tuple(violations))


_SWAP_CLOSURE_CAP = 50_000


def _splice(inverse, left: Word, v: Word, right: Word) -> Word:
    """free_reduce(left + v + right) for freely reduced left, v and
    right: letters cancel only at the two junctions."""
    for part in (v, right):
        c = 0
        while c < len(left) and c < len(part) and left[-1 - c] == inverse[part[c]]:
            c += 1
        left = left[: len(left) - c] + part[c:]
    return left


def _reduce_with_log(p: Presentation, w: Word) -> tuple[Word, tuple[int, ...]]:
    """Rewrite w to its canonical shortest form, counting relator uses.

    Returns (nf, counts): counts[k] is the signed number of times
    relator k was applied, each application replacing u by v and so
    multiplying the represented kernel element by sign * z_k.  A
    reduction that applies no relator returns p.zero_counts.

    Strategy: freely reduce; greedily apply the leftmost shortening; when
    stuck, breadth-first search the equal-length swap closure for a word
    that admits a shortening.  At the final fixed point every member of
    the closure is shortening-free and the shortlex-least member is
    returned, which makes the result a normal form usable as a section of
    the group.  Keys are found by patterns the presentation compiles once,
    in the order of a scan by position, then length descending; a rewrite
    free-reduces only at its two junctions.
    """
    alpha = p.alphabet
    inverse = alpha.inverse
    shorten, swaps, *_ = p.tables
    find, starts, lengths, order = p._compiled
    n = len(w)
    w = alpha.free_reduce(w)
    counts = p.zero_counts
    while True:
        hit = find and find(w)
        if hit:
            i, j = hit.span()
            v, k, sign = shorten[hit.group()]
            w = _splice(inverse, w[:i], v, w[j:])
            counts = counts[:k] + (counts[k] + sign,) + counts[k + 1 :]
            continue
        if not swaps:
            return w, counts
        # swap closure at the current length
        visited: dict[Word, tuple[int, ...]] = {w: counts}
        queue = deque([w])
        restart = None
        while queue and restart is None:
            cur = queue.popleft()
            at = visited[cur]
            for start in starts(cur):
                i = start.start()
                for length in lengths:
                    if i + length > len(cur):
                        continue
                    for v, k, sign in swaps.get(cur[i : i + length], ()):
                        nxt = _splice(inverse, cur[:i], v, cur[i + length :])
                        ncounts = at[:k] + (at[k] + sign,) + at[k + 1 :]
                        if len(nxt) < len(cur):
                            restart = (nxt, ncounts)
                            break
                        if nxt not in visited:
                            if len(visited) > _SWAP_CLOSURE_CAP:
                                raise ResourceBound(
                                    f"swap closure exceeds cap {_SWAP_CLOSURE_CAP}"
                                    f" while reducing a word of length {n}"
                                )
                            visited[nxt] = ncounts
                            if find and find(nxt):
                                restart = (nxt, ncounts)
                                break
                            queue.append(nxt)
                    if restart:
                        break
                if restart:
                    break
        if restart is not None:
            w, counts = restart
            continue
        if len(visited) == 1:
            return w, counts
        best = min(visited, key=lambda u: u.translate(order))
        return best, visited[best]


def normal_form_with_log(p: Presentation, w: Word) -> tuple[Word, tuple[int, ...]]:
    """(nf, counts) of w as `_reduce_with_log` returns them, kept in the
    presentation's normal-form cache."""
    cached = p._nf_cache.get(w)
    if cached is None:
        cached = p._nf_cache[w] = _reduce_with_log(p, w)
    return cached


def normal_form(p: Presentation, w: Word) -> Word:
    """Shortlex normal form of w in the presented group."""
    return normal_form_with_log(p, w)[0]


@dataclass
class CayleyBall:
    """All group elements within a given radius, with shortlex normal forms.

    `edges[i][k]` is the index of element_i * letters[k] when that
    product stays in the ball, else None: one tuple per element, indexed
    by letter position in alphabet order.  `logs[i][k]` is the
    relator-count vector of reducing words[i] + letters[k] to its normal
    form, for every element and letter, boundary edges included: the
    edge's kernel label.  Every logs row with no reduced edge is one
    shared row of p.zero_counts.  `reduced_edges` counts the edges whose
    normal form went through the reducer.  `links[j - 1]` is (y, p) for
    element j >= 1: its normal form's last letter's position and the
    index of the rest, p None when the rest is not in the ball.
    """

    presentation: Presentation
    radius: int
    words: list[Word]
    index: dict[Word, int]
    distances: list[int]
    edges: list[tuple[Optional[int], ...]]
    logs: list[tuple[tuple[int, ...], ...]]
    reduced_edges: int
    links: list[tuple[int, Optional[int]]]

    def __len__(self) -> int:
        return len(self.words)


def _ends_in_key(w: Word, keys, key_lengths: list[int]) -> bool:
    """True iff a suffix of w whose length is in key_lengths is a key."""
    return any(w[-n:] in keys for n in key_lengths if n <= len(w))


def build_ball(p: Presentation, R: int) -> CayleyBall:
    """BFS enumeration of the ball of radius R around the identity.

    A normal form with no subword among the rewrite tables' keys reduces
    to itself with p.zero_counts.  So an edge out of such a key-free word
    w by a letter x needs no reduction when x cancels w's last letter
    (the result is w minus that letter) or when no suffix of wx is a
    key (wx is then its own normal form, and key-free).  Suffixes are
    tested only when the last m letters of wx, m the shortest key
    length, end some key (784 of 178,312 edges on the t1s ball of
    radius 5).  Every other edge goes through the reducer.  Either way
    the edge's normal form and relator counts are the ones the reducer
    would have produced.  The presentation's normal-form cache gains
    only the reducer's results; the ball is the one store of the rest.

    The reducer never lengthens a word, so no normal form in the ball is
    longer than R: a key-free word of R letters has no fast edge into the
    ball but its back edge, read from its link, and its row visits only
    the letters that complete a key tail.  More than state_cap() elements
    raise ResourceBound.
    """
    cap = state_cap()
    shorten, swaps, *_ = p.tables
    keys = shorten.keys() | swaps.keys()
    key_lengths = sorted({len(u) for u in keys})
    m = key_lengths[0] if key_lengths else 1
    position = p.alphabet.position
    # the letters x that make u x a key tail, by u, in alphabet order
    completing: dict[Word, list[int]] = {}
    for u in sorted({u[-m:] for u in keys}, key=p.alphabet.shortlex_key):
        completing.setdefault(u[:-1], []).append(position[u[-1]])

    def is_key_free(w: Word) -> bool:
        return not any(
            w[i : i + n] in keys for n in key_lengths for i in range(len(w) - n + 1)
        )

    letters = p.alphabet.letters
    inverse = p.alphabet.inverse
    # by a letter's position, the position of its inverse
    back_of = [position[inverse[x]] for x in letters]
    zero_row = (p.zero_counts,) * len(letters)
    words = [""]
    index = {"": 0}
    distances = [0]
    key_free = [is_key_free("")]
    edges: list[tuple[Optional[int], ...]] = []
    logs: list[tuple[tuple[int, ...], ...]] = []
    links: list[tuple[int, Optional[int]]] = []
    reduced = 0
    # elements are expanded in index order, so edges[i] and logs[i] line
    # up with words[i] and each level is a range of indices; the last
    # level only looks up its outgoing edges
    frontier = range(1)
    for dist in range(R + 1):
        for i in frontier:
            w = words[i]
            free = key_free[i]
            back = inverse[w[-1]] if w else None
            row: list[Optional[int]] = [None] * len(letters)
            todo: Iterable[int] = range(len(letters))
            if free:
                # the letters x for which wx's last m letters are a key tail
                tail = completing.get(w[len(w) + 1 - m :], ())
                if len(w) == R:
                    if w:
                        y, parent = links[i - 1]
                        row[back_of[y]] = parent
                    todo = tail
            row_logs = None
            for k in todo:
                x = letters[k]
                wx = w + x
                fast = free
                if free and x == back:
                    nf = w[:-1]
                elif free:
                    nf = wx
                    fast = k not in tail or not _ends_in_key(wx, keys, key_lengths)
                if not fast:
                    nf, counts = normal_form_with_log(p, wx)
                    if row_logs is None:
                        row_logs = list(zero_row)
                    row_logs[k] = counts
                    reduced += 1
                j = index.get(nf)
                if j is None and dist < R:
                    if len(words) >= cap:
                        raise ResourceBound(f"ball exceeds cap {cap}")
                    j = len(words)
                    index[nf] = j
                    words.append(nf)
                    key_free.append(fast or is_key_free(nf))
                    link = (position[nf[-1]], index.get(nf[:-1])) if nf != wx else (k, i)
                    links.append(link)
                row[k] = j
            edges.append(tuple(row))
            logs.append(zero_row if row_logs is None else tuple(row_logs))
        frontier = range(frontier.stop, len(words))
        distances += [dist + 1] * len(frontier)
    return CayleyBall(p, R, words, index, distances, edges, logs, reduced, links)
