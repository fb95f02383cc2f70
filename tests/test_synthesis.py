"""The one signature graph against the per-automaton synthesis it
replaced.

`conftest.reference_graph` synthesizes L and each family on its own
graph.  The graph must be, table for table, the reference L and the
reference graph of every family, with every value equal to the
reference family's.  The PPA over the new families is checked against
`test_explore.reference_ppa` there; here it must equal the PPA over the
reference families.
"""

import pytest

from exteq.abelian import FGAGroup
from exteq.errors import ExtEqError
from exteq.extension import BallCocycles, CentralExtension
from exteq.fpa_ppa import build_ppa
from exteq.lrational import (
    KINDS,
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    LanguageSpec,
    _synthesize_graph,
    build_automata,
)
from exteq.words import Alphabet, Presentation, build_ball

from conftest import language_equal, reference_family, reference_graph, walk_alone

STACKS = ["q8_stack", "modular16_stack", "dihedral_stack", "t1s_stack"]


def same_table(M, ref):
    return (M.transitions, M.initial, M.accepting) == (
        ref.transitions,
        ref.initial,
        ref.accepting,
    )


@pytest.mark.parametrize("stack_name", STACKS)
def test_graphs_match_reference(request, stack_name):
    stack = request.getfixturevalue(stack_name)
    graph, _ = _synthesize_graph(stack.lspec)
    for kind in (None,) + KINDS:
        assert same_table(graph, reference_graph(stack.lspec, kind)[0]), kind
    for kind in KINDS:
        assert stack.fams[kind].graph is stack.fams[Q_LEFT].graph
    assert same_table(stack.fams[Q_LEFT].graph, graph)


@pytest.mark.parametrize("stack_name", STACKS)
def test_families_and_ppa_match_reference(request, stack_name):
    stack = request.getfixturevalue(stack_name)
    ref = {kind: reference_family(stack.ext, kind, stack.lspec) for kind in KINDS}
    for kind in KINDS:
        fam = stack.fams[kind]
        assert same_table(fam.graph, ref[kind].graph), kind
        assert fam.values == ref[kind].values, kind
        assert fam.value_sets == ref[kind].value_sets, kind
    D = build_ppa(ref[RHO_LEFT], ref[RHO_RIGHT_REVERSED])
    assert D.fsa == stack.ppa.fsa
    assert D.states == stack.ppa.states



# small presentations: generators, relators
SWEPT = {
    "Z/3": ("a", ("aaa",)),
    "Z/4": ("a", ("aaaa",)),
    "S3": ("st", ("ss", "ttt", "stst")),
    "D4": ("st", ("ss", "tt", "stststst")),
    "Z/2*Z/3": ("st", ("ss", "ttt")),
    "(2,3,7)": ("ab", ("aa", "bbb", "ab" * 7)),
    "Z/2xZ/4": ("st", ("ss", "tttt", "stST")),
    "F2": ("ab", ()),
    "Z^2": ("ab", ("abAB",)),
}


@pytest.mark.parametrize(
    "name,nu,window",
    [
        ("Z/3", 1, 2),
        ("Z/4", 0, 1),
        ("Z/4", 0, None),
        ("S3", 0, 2),
        ("D4", 0, 3),
        ("Z/2*Z/3", 1, 2),
        ("(2,3,7)", 0, None),
        ("Z/2xZ/4", 0, 1),
        ("F2", 0, 3),
        ("Z^2", 0, None),
    ],
)
def test_one_graph_validates_where_three_graphs_do(name, nu, window):
    # each relator lifts to the generator of a Z kernel; the reference
    # families sit on three graphs, the reversed one on signatures of w^-1
    gens, relators = SWEPT[name]
    p = Presentation(Alphabet.from_generators(list(gens)), relators)
    kernel = FGAGroup(1)
    ext = CentralExtension(p, kernel, tuple(kernel.element([1]) for _ in relators))
    lspec, R = LanguageSpec(p, nu=nu, window=window), 4
    # the values are read at every live state's representative, and on
    # (2,3,7) and Z/2*Z/3 some are longer than R
    graph, reps = lspec.graph
    longest = max(len(reps[s]) for s in graph.accepting)
    cocycles = BallCocycles(ext, build_ball(p, max(R, longest)))
    refs = [reference_family(ext, kind, lspec) for kind in KINDS]
    if not all(walk_alone(f, R, cocycles.ball, cocycles=cocycles).passed for f in refs):
        with pytest.raises(ExtEqError):
            build_automata(ext, lspec, R, cocycles)
        return
    fams = build_automata(ext, lspec, R, cocycles)
    assert same_table(fams[Q_LEFT].graph, refs[0].graph)
    assert language_equal(fams[Q_LEFT].graph, reference_graph(lspec, None)[0])
    for kind, ref in zip(KINDS, refs):
        assert fams[kind].validated_radius == R
        assert fams[kind].value_sets == ref.value_sets, kind
