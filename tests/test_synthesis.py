"""The two signature graphs against the per-automaton synthesis they
replaced.

`conftest.reference_graph` synthesizes L and each family on its own
graph.  The left graph must be, table for table, the reference L and the
reference q-left and rho-left graphs, and the right graph the reference
reversed graph, with every value equal to the reference family's.  The
PPA over the new families is checked against `test_explore.reference_ppa`
there; here it must equal the PPA over the reference families.
"""

import pytest

from exteq.fpa_ppa import build_ppa
from exteq.instances import klein_presentation
from exteq.lrational import (
    KINDS,
    Q_LEFT,
    RHO_LEFT,
    RHO_RIGHT_REVERSED,
    LanguageSpec,
    _synthesize_graph,
)

from conftest import reference_family, reference_graph

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
    left, _ = _synthesize_graph(stack.lspec, right=False)
    right, _ = _synthesize_graph(stack.lspec, right=True)
    for kind in (None, Q_LEFT, RHO_LEFT):
        assert same_table(left, reference_graph(stack.lspec, kind)[0]), kind
    assert same_table(right, reference_graph(stack.lspec, RHO_RIGHT_REVERSED)[0])
    assert stack.fams[Q_LEFT].graph is stack.fams[RHO_LEFT].graph
    assert same_table(stack.fams[Q_LEFT].graph, left)
    assert same_table(stack.fams[RHO_RIGHT_REVERSED].graph, right)


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


def test_right_graph_stays_apart_on_klein():
    # a graph on (membership, forward, reversed) signatures would refine
    # the left graph here, and F with it
    lspec = LanguageSpec(klein_presentation(), nu=0, window=1)
    left, _ = _synthesize_graph(lspec, right=False)
    right, _ = _synthesize_graph(lspec, right=True)
    assert left.n_states == 5
    assert right.n_states == 7
    assert same_table(left, reference_graph(lspec, None)[0])
