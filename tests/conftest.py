"""Session-scoped builds of the full automaton stack per instance.

Synthesis plus validation is the expensive part of the suite; building
each instance's language automaton, predictor families and products once
keeps the suite fast without weakening any test.
"""

from dataclasses import dataclass

import pytest

from exteq.extension import BallCocycles, CentralExtension
from exteq.fpa_ppa import FPA, PPA, build_fpa, build_lfpa, build_ppa, build_rfpa
from exteq.instances import (
    default_language_spec,
    dihedral_z,
    modular16,
    quaternion8,
    t1s,
)
from exteq.lrational import (
    KINDS,
    LanguageSpec,
    PredictorFamily,
    build_L_automaton,
    build_predictor_family,
)
from exteq.words import CayleyBall, build_ball
from exteq.automata import FSA


@dataclass
class Stack:
    ext: CentralExtension
    lspec: LanguageSpec
    ball: CayleyBall
    L: FSA
    fams: dict[str, PredictorFamily]
    fpa: FPA
    lfpa: FPA
    rfpa: FPA
    ppa: PPA


def _build_stack(ext: CentralExtension, R_validate: int, ball_radius=None) -> Stack:
    lspec = default_language_spec(ext.base)
    ball = build_ball(ext.base, ball_radius or R_validate)
    L = build_L_automaton(ext.base, lspec, 4, R_validate, ball=ball)
    cocycles = BallCocycles(ext, ball)
    fams = {
        kind: build_predictor_family(
            ext, kind, lspec, 4, R_validate, ball=ball, cocycles=cocycles
        )
        for kind in KINDS
    }
    fpa = build_fpa(fams["q-left"])
    lfpa = build_lfpa(fams["rho-left"])
    rfpa = build_rfpa(fams["rho-right-reversed"])
    ppa = build_ppa(lfpa, rfpa, ext)
    return Stack(ext, lspec, ball, L, fams, fpa, lfpa, rfpa, ppa)


@pytest.fixture(scope="session")
def dihedral_stack():
    return _build_stack(dihedral_z(), 8)


@pytest.fixture(scope="session")
def q8_stack():
    return _build_stack(quaternion8(), 7)


@pytest.fixture(scope="session")
def modular16_stack():
    return _build_stack(modular16(), 6)


@pytest.fixture(scope="session")
def t1s_stack():
    return _build_stack(t1s(), 5)
