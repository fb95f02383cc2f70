import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exteq.abelian import (
    AbelianLinearSystem,
    FGAGroup,
    iota1,
    iota1_inverse,
    iota3,
    iota4,
    in_iota1_image,
    pa,
    smith_normal_form,
    solve_integer_system,
    solve_linear_system,
)
from exteq.errors import GroupMismatch, NotInImage
from exteq.instances import modular16

Z_Z3 = FGAGroup(1, (3,))


groups = st.builds(
    FGAGroup,
    st.integers(0, 3),
    st.lists(st.integers(2, 9), max_size=3).map(tuple),
)


@st.composite
def group_and_elements(draw, count=2):
    g = draw(groups)
    elems = []
    for _ in range(count):
        free = draw(st.lists(st.integers(-50, 50), min_size=g.rank, max_size=g.rank))
        tors = draw(
            st.lists(st.integers(-50, 50), min_size=len(g.torsion), max_size=len(g.torsion))
        )
        elems.append(g.element(free, tors))
    return g, elems


# -- element arithmetic -------------------------------------------------


def test_fga_arith_examples():
    assert Z_Z3.element([1], [0]) + Z_Z3.element([-1], [0]) == Z_Z3.zero()
    assert Z_Z3.element([0], [2]) + Z_Z3.element([0], [2]) == Z_Z3.element([0], [1])
    assert -Z_Z3.element([0], [1]) == Z_Z3.element([0], [2])


def test_fga_group_mismatch():
    with pytest.raises(GroupMismatch):
        Z_Z3.zero() + FGAGroup(1, (4,)).zero()


@given(group_and_elements(count=3))
def test_fga_group_axioms(data):
    g, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + g.zero() == a
    assert (a + (-a)).is_zero()


# -- structure maps -----------------------------------------------------


def test_pa_examples():
    g = FGAGroup(2, (3,))
    assert pa(g.element([3, 4], [1])) == g.parity().element([], [1, 0, 1])
    assert pa(g.zero()).is_zero()
    assert pa(g.element([2, 2], [0])).is_zero()


def test_iota1_examples():
    a = Z_Z3.element([3], [1])
    img = iota1(a)
    assert img.group == FGAGroup(1, (6,))
    assert img == img.group.element([6], [2])
    assert iota1_inverse(img) == a
    with pytest.raises(NotInImage):
        iota1_inverse(FGAGroup(1, (6,)).element([1], [0]))


def test_pushout_built_once_per_group():
    g = FGAGroup(1, (3, 4))
    p = g.pushout()
    assert p is g.pushout()
    assert p == FGAGroup(1, (6, 8)) and hash(p) == hash(FGAGroup(1, (6, 8)))
    # the kept pushout is no field: equality, hashing and repr are unchanged
    twin = FGAGroup(1, (3, 4))
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert twin.pushout() is not p and twin.pushout() == p
    assert p.pushout() == FGAGroup(1, (12, 16))
    total = iota1(g.element([1], [1, 1])) + iota1(twin.element([0], [2, 3]))
    assert total == p.element([2], [0, 0])
    ext = modular16()
    assert ext.pushout_kernel is ext.pushout_kernel is ext.kernel.pushout()


def test_iota3_iota4_examples():
    a = Z_Z3.element([1], [2])
    assert iota3(a) == FGAGroup(1, (6,)).element([1], [2])
    assert iota4(pa(Z_Z3.zero()), Z_Z3).is_zero()
    total = iota3(a) + iota4(pa(a), Z_Z3)
    assert total == FGAGroup(1, (6,)).element([2], [4])
    assert iota1_inverse(total) == a


@given(group_and_elements(count=2))
@settings(max_examples=300)
def test_pa_iota1_homomorphisms(data):
    g, (a, b) = data
    assert pa(a + b) == pa(a) + pa(b)
    assert iota1(a + b) == iota1(a) + iota1(b)
    assert iota1_inverse(iota1(a)) == a
    assert in_iota1_image(iota1(a))


@given(group_and_elements(count=1))
@settings(max_examples=300)
def test_parity_correction_lands_in_image(data):
    # iota3(a) + iota4(pa(a)) always has an iota1 preimage
    g, (a,) = data
    assert in_iota1_image(iota3(a) + iota4(pa(a), g))


def test_parity_correction_exhaustive_small():
    g = FGAGroup(2, (4, 6))
    for free in itertools.product(range(-4, 5), repeat=g.rank):
        for tors in itertools.product(*map(range, g.torsion)):
            a = g.element(free, tors)
            iota1_inverse(iota3(a) + iota4(pa(a), g))


def test_parity_elements_enumeration():
    g = FGAGroup(2, (3,))
    par = g.parity()
    assert par == FGAGroup(0, (2, 2, 3)) and par is g.parity()
    elems = list(par.elements())
    assert len(elems) == 4 * 3
    assert len(set(elems)) == len(elems)
    # the order of the Theta stream's d values: parity bits, then torsion
    assert [e.coords() for e in elems] == [
        bits + (t,) for bits in itertools.product(range(2), repeat=2) for t in range(3)
    ]
    # a rank-0 group is its own parity group, so iota4 takes the kernel
    assert FGAGroup(0, (2,)).parity() == FGAGroup(0, (2,))
    assert iota4(par.element([], [1, 1, 2]), g) == g.pushout().element([1, 1], [2])


# -- smith normal form --------------------------------------------------


def _det(M):
    n = len(M)
    if n == 0:
        return 1
    M = [row[:] for row in M]
    # fraction-free Gaussian elimination (Bareiss)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _mat_mul(A, B):
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _check_snf(M):
    U, D, V = smith_normal_form(M)
    assert _mat_mul(_mat_mul(U, M), V) == D
    assert abs(_det(U)) == 1
    assert abs(_det(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    for i in range(len(D)):
        for j in range(len(D[0]) if D else 0):
            if i != j:
                assert D[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x:
            assert y % x == 0
        else:
            assert y == 0
    return diag


def test_snf_examples():
    diag = _check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]
    assert _check_snf([[1, 0], [0, 1]]) == [1, 1]
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]


def test_snf_random_matrices():
    rng = random.Random(5)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        _check_snf(M)


def test_integer_solver():
    assert solve_integer_system([[2]], [6]) == ([3], None)
    assert solve_integer_system([[0]], [-2]) == (None, ([1], -2, 0))
    assert solve_integer_system([[2]], [3]) == (None, ([1], 3, 2))
    x, failure = solve_integer_system([[1, 1], [1, -1]], [4, 2])
    assert x == [3, 1] and failure is None
    rng = random.Random(6)
    for _ in range(100):
        M = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(2)]
        xs = [rng.randrange(-4, 5) for _ in range(3)]
        b = [sum(M[i][j] * xs[j] for j in range(3)) for i in range(2)]
        got, failure = solve_integer_system(M, b)
        assert got is not None and failure is None
        assert [sum(M[i][j] * got[j] for j in range(3)) for i in range(2)] == b


# -- linear systems over abelian groups --------------------------------


def test_solve_linear_examples():
    z = FGAGroup(1)
    sys = AbelianLinearSystem(z, ("x",))
    sys.add({"x": 2}, z.element([6]))
    assert solve_linear_system(sys) == ({"x": z.element([3])}, None)

    sys2 = AbelianLinearSystem(z, ("x",))
    sys2.add({}, z.element([-2]))
    assert solve_linear_system(sys2) == (
        None, {"coordinate": 0, "combination": [1], "value": -2, "modulus": None}
    )
    sys2.equations[0] = ({}, z.element([2]))
    assert solve_linear_system(sys2)[1]["combination"] == [-1]

    z2 = FGAGroup(0, (2,))
    sys3 = AbelianLinearSystem(z2, ("x", "y"))
    sys3.add({"x": 1, "y": 1}, z2.zero())
    sys3.add({"x": 1, "y": -1}, z2.zero())
    sol, _ = solve_linear_system(sys3)
    assert sol is not None and sys3.check(sol)


def test_solve_linear_vs_exhaustive_torsion():
    rng = random.Random(7)
    group_pool = [
        FGAGroup(0, (2,)),
        FGAGroup(0, (4,)),
        FGAGroup(0, (2, 3)),
        FGAGroup(0, (6,)),
        FGAGroup(0, (2, 2, 3)),
        FGAGroup(0, (36,)),
        FGAGroup(0, (4, 9)),
    ]
    for _ in range(300):
        g = rng.choice(group_pool)
        nvars = rng.randrange(1, 4)
        variables = tuple(f"v{i}" for i in range(nvars))
        sys = AbelianLinearSystem(g, variables)
        for _ in range(rng.randrange(1, 4)):
            coeffs = {v: rng.randrange(-3, 4) for v in variables}
            rhs = g.element([], [rng.randrange(d) for d in g.torsion])
            sys.add(coeffs, rhs)
        got, obstruction = solve_linear_system(sys)
        assert (got is None) != (obstruction is None)
        all_elems = list(g.elements())
        brute = None
        for combo in itertools.product(all_elems, repeat=nvars):
            assignment = dict(zip(variables, combo))
            if sys.check(assignment):
                brute = assignment
                break
        if brute is None:
            assert got is None
        else:
            assert got is not None and sys.check(got)


def test_solve_linear_mixed_rank_torsion():
    g = FGAGroup(1, (4,))
    sys = AbelianLinearSystem(g, ("x", "y"))
    sys.add({"x": 1, "y": 2}, g.element([5], [3]))
    sys.add({"x": 1}, g.element([1], [1]))
    sol, _ = solve_linear_system(sys)
    assert sol is not None and sys.check(sol)
