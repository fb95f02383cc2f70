import random

import pytest

from conftest import enumerate_language, is_empty, language_equal, product
from exteq.automata import FSA, restrict_accepting, words_up_to
from exteq.errors import AlphabetMismatch, UnknownState
from exteq.words import Alphabet

AB = Alphabet.from_generators(["a"])  # letters a, A


def parity_dfa():
    # accepts words of even length over {a, A}
    return FSA(AB, ((1, 1), (0, 0)), 0, frozenset([0]))


def random_dfa(rng, alphabet, n_states=5):
    rows = tuple(
        tuple(rng.randrange(n_states) for _ in alphabet.letters)
        for _ in range(n_states)
    )
    accepting = frozenset(
        s for s in range(n_states) if rng.random() < 0.4
    )
    return FSA(alphabet, rows, rng.randrange(n_states), accepting)


def lang(M, maxlen):
    return set(enumerate_language(M, maxlen))


def test_run_and_accepts():
    M = parity_dfa()
    assert M.run("") == M.initial
    assert M.accepts("aa") and not M.accepts("a")
    for w in words_up_to(AB, 5):
        assert M.accepts(w) == (M.run(w) in M.accepting)
    with pytest.raises(AlphabetMismatch):
        M.accepts("b")


@pytest.mark.parametrize(
    "rows, initial, accepting, message",
    [
        (((1, 1), (0, -1)), 0, {0}, "transition table"),
        (((1, 1), (2, 0)), 0, {0}, "transition table"),
        (((1, 1), (0,)), 0, {0}, "transition table"),
        (((1, 1), (0, 0, 0)), 0, {0}, "transition table"),
        (((1, 1), (0, 0)), 2, {0}, "initial state"),
        (((1, 1), (0, 0)), -1, {0}, "initial state"),
        (((1, 1), (0, 0)), 0, {2}, "accepting set"),
        (((1, 1), (0, 0)), 0, {-1}, "accepting set"),
    ],
)
def test_fsa_rejects_malformed_tables(rows, initial, accepting, message):
    with pytest.raises(ValueError, match=message):
        FSA(AB, rows, initial, frozenset(accepting))


def test_fsa_over_empty_alphabet():
    empty = Alphabet.from_generators([])
    M = FSA(empty, ((), ()), 1, frozenset([1]))
    assert M.accepts("")
    with pytest.raises(ValueError, match="transition table"):
        FSA(empty, ((), (0,)), 0, frozenset())


def test_enumerate_small():
    got = enumerate_language(parity_dfa(), 4)
    assert got[0] == ""
    assert set(got) == {w for w in words_up_to(AB, 4) if len(w) % 2 == 0}


def test_product_single_and_intersection():
    rng = random.Random(20)
    for _ in range(40):
        M1 = random_dfa(rng, AB)
        M2 = random_dfa(rng, AB)
        single, _ = product([M1], lambda t: t[0] in M1.accepting)
        assert lang(single, 6) == lang(M1, 6)
        inter, _ = product(
            [M1, M2], lambda t: t[0] in M1.accepting and t[1] in M2.accepting
        )
        assert lang(inter, 6) == lang(M1, 6) & lang(M2, 6)
        union, _ = product(
            [M1, M2], lambda t: t[0] in M1.accepting or t[1] in M2.accepting
        )
        assert lang(union, 6) == lang(M1, 6) | lang(M2, 6)


def test_reroot_restrict():
    M = parity_dfa()
    assert lang(restrict_accepting(M, M.accepting), 5) == lang(M, 5)
    # running from another start state reads the language rooted there
    odd = {w for w in words_up_to(AB, 3) if M.run(w, start=1) in M.accepting}
    assert odd == {w for w in words_up_to(AB, 3) if len(w) % 2 == 1}
    with pytest.raises(UnknownState):
        M.run("", start=7)
    with pytest.raises(UnknownState):
        restrict_accepting(M, [7])


def test_branches_partition_language():
    # the single-accepting-state branches of a DFA partition its language
    rng = random.Random(21)
    for _ in range(20):
        M = random_dfa(rng, AB)
        branches = [restrict_accepting(M, [s]) for s in M.accepting]
        full = lang(M, 8)
        parts = [lang(B, 8) for B in branches]
        union_all = set().union(*parts) if parts else set()
        assert union_all == full
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not (parts[i] & parts[j])


def test_is_empty_and_language_equal():
    none = FSA(AB, ((0, 0),), 0, frozenset())
    assert is_empty(none)
    assert not is_empty(parity_dfa())
    assert language_equal(parity_dfa(), FSA(AB, ((1, 1), (0, 0)), 0, frozenset([0])))
    assert not language_equal(parity_dfa(), none)
