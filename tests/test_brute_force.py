"""Verdicts on the finite extensions against brute force over E^n.

Q8 and modular16 are small enough (|E| = 8 and 16) to decide a system of
one or two variables by multiplying out every assignment in E^n, E being
the closed ball's words times the kernel's elements.  Finite-complete
mode must agree with that reference exactly; sound mode (Theta cap 20)
may miss solutions but must never claim one that is not there, and never
reads Unsolvable.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exteq.extension import RHO, ExtElement
from exteq.instances import modular16, quaternion8
from exteq.reduction import (
    SOLVED,
    UNSOLVABLE,
    EquationSystem,
    Pipeline,
    SolveConfig,
    check_in_extension,
    finite_diameter,
    solve,
)

INSTANCES = {"quaternion8": quaternion8, "modular16": modular16}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def finite_case(request):
    """The pipeline at the `exteq solve` defaults and every element of E."""
    ext = INSTANCES[request.param]()
    pipe = Pipeline.build(ext, kappa2=2)
    assert finite_diameter(pipe.ball) is not None
    elements = [
        ExtElement(ext, RHO, g, a) for g in pipe.ball.words for a in ext.kernel.elements()
    ]
    return pipe, elements


@st.composite
def systems(draw, elements):
    """1-2 variables, 1-2 equations of 2-5 tokens, at most one constant."""
    variables = ["x", "y"][: draw(st.integers(1, 2))]
    constants = {}
    if draw(st.booleans()):
        constants["c"] = draw(st.sampled_from(elements))
    symbols = variables + list(constants)
    tokens = symbols + [s.upper() for s in symbols]
    equations = draw(
        st.lists(
            st.lists(st.sampled_from(tokens), min_size=2, max_size=5),
            min_size=1,
            max_size=2,
        )
    )
    return EquationSystem(tuple(variables), constants, tuple(map(tuple, equations)))


def solvable_by_brute_force(sys_, ext, elements) -> bool:
    return any(
        check_in_extension(sys_, ext, dict(zip(sys_.variables, combo)))
        for combo in itertools.product(elements, repeat=len(sys_.variables))
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_verdicts_match_brute_force(finite_case, data):
    pipe, elements = finite_case
    sys_ = data.draw(systems(elements))
    solvable = solvable_by_brute_force(sys_, pipe.ext, elements)
    complete = solve(sys_, pipe, SolveConfig(mode="finite-complete"))
    assert complete.status == (SOLVED if solvable else UNSOLVABLE)
    assert complete.report["anomalies"] == []
    sound = solve(sys_, pipe, SolveConfig(mode="sound", theta_cap=20))
    assert sound.status != UNSOLVABLE
    assert solvable or sound.status != SOLVED
    assert sound.report["anomalies"] == []
    for out in (complete, sound):
        if out.status == SOLVED:
            assert check_in_extension(sys_, pipe.ext, out.assignment)
