"""Bundled example groups and extensions used by tests, demos and the CLI."""

from __future__ import annotations

from fractions import Fraction

from .abelian import FGAGroup
from .extension import RHO, CentralExtension, ExtElement
from .lrational import LanguageSpec
from .reduction import EquationSystem
from .words import Alphabet, Presentation


def genus2_presentation() -> Presentation:
    """Genus-2 surface group <a,b,c,d | [a,b][c,d]>; C'(1/6)."""
    alpha = Alphabet.from_generators(["a", "b", "c", "d"])
    return Presentation(alpha, ("abABcdCD",), delta=Fraction(8), sc_fraction=Fraction(1, 6))


def dihedral_presentation() -> Presentation:
    """Infinite dihedral group <s,t | s^2, t^2>."""
    alpha = Alphabet.from_generators(["s", "t"])
    return Presentation(alpha, ("ss", "tt"))


def klein_presentation() -> Presentation:
    """Z/2 x Z/2 = <s,t | s^2, t^2, [s,t]>."""
    alpha = Alphabet.from_generators(["s", "t"])
    return Presentation(alpha, ("ss", "tt", "stST"))


def t1s() -> CentralExtension:
    """Unit tangent bundle of the genus-2 surface: kernel Z, the surface
    relator lifts to the central element of exponent -2 (Euler class)."""
    kernel = FGAGroup(1)
    return CentralExtension(genus2_presentation(), kernel, (kernel.element([-2]),))


def dihedral_z() -> CentralExtension:
    """Extension of the infinite dihedral group by Z with s^2 = z, t^2 = 1."""
    kernel = FGAGroup(1)
    return CentralExtension(
        dihedral_presentation(), kernel, (kernel.element([1]), kernel.element([0]))
    )


def quaternion8() -> CentralExtension:
    """Q8 as a central extension of Z/2 x Z/2 by Z/2 = {1, -1}:
    s^2 = t^2 = [s,t] = -1."""
    kernel = FGAGroup(0, (2,))
    one = kernel.element([], [1])
    return CentralExtension(klein_presentation(), kernel, (one, one, one))


def modular16() -> CentralExtension:
    """An order-16 central extension of Z/2 x Z/2 by Z/4:
    s^2 = t^2 = z, [s,t] = z^2."""
    kernel = FGAGroup(0, (4,))
    z = kernel.element([], [1])
    return CentralExtension(klein_presentation(), kernel, (z, z, 2 * z))


def letter_constant(ext: CentralExtension, x: str) -> ExtElement:
    """The canonical lift of a generator: section coordinates (x, 0)."""
    return ExtElement(ext, RHO, x, ext.kernel.zero())


def central_constant(ext: CentralExtension, a) -> ExtElement:
    """The image of a kernel element: section coordinates (1, a)."""
    return ExtElement(ext, RHO, "", a)


def t1s_commutator_system(
    ext: CentralExtension, central_power: int = 0
) -> EquationSystem:
    """The equation [a,b][x,d] z^k = 1 over the unit tangent bundle,
    with the generators a, b, d as constants and z the kernel generator.

    For k = 0 this is the base surface relator with c replaced by a
    variable; the relator lifts with central defect -2, so solvability
    in the extension depends on k."""
    constants = {
        "a": letter_constant(ext, "a"),
        "b": letter_constant(ext, "b"),
        "d": letter_constant(ext, "d"),
    }
    eq = ["a", "b", "A", "B", "x", "d", "X", "D"]
    if central_power:
        constants["z"] = central_constant(ext, ext.kernel.element([1]))
        eq += ["z"] * central_power if central_power > 0 else ["Z"] * (-central_power)
    return EquationSystem(("x",), constants, (tuple(eq),))


def default_language_spec(p: Presentation) -> LanguageSpec:
    """A quasi-geodesic language choice known to validate for the bundled
    groups: geodesics via relator-fragment signatures for the dense
    small-cancellation surface presentation, geodesics via short
    normal-form windows for the dihedral group, and a generous slack with
    diameter-wide windows for the finite quotients."""
    if p == genus2_presentation():
        return LanguageSpec(p, nu=0, window=None)
    if p == dihedral_presentation():
        return LanguageSpec(p, nu=0, window=2)
    if p == klein_presentation():
        return LanguageSpec(p, nu=4, window=4)
    if not p.relators:
        return LanguageSpec(p, nu=0, window=1)
    return LanguageSpec(p, nu=2, window=4)
