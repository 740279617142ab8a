import random
from math import gcd

import pytest

from conftest import random_unimodular
from oracles import closed_form_plane_basis, matmul

from fano3.intlinalg import (
    chart_rows,
    cross,
    det,
    det3,
    dot,
    extends_to_basis,
    identity,
    inverse_unimodular,
    matvec,
    smith_normal_form,
    solve_height_one,
)


def matrices(rng, shapes, count):
    """The zero and a rank-1 matrix of each shape, then ``count`` random ones.

    Entries lie in [-9, 9]; each random matrix takes a shape from ``shapes``.
    """
    for rows, cols in shapes:
        yield ((0,) * cols,) * rows
        v = [0] * cols
        while not any(v):
            v = [rng.randint(-3, 3) for _ in range(cols)]
        ks = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rows)]
        yield tuple(tuple(k * x for x in v) for k in ks)
    for _ in range(count):
        rows, cols = rng.choice(shapes)
        yield tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))


class TestDet3:
    def test_identity(self):
        assert det3(identity(3)) == 1

    def test_pyramid_side_facet(self):
        assert det3(((1, 0, 1), (1, 1, 1), (0, 0, -1))) == -1

    def test_dependent_rows(self):
        assert det3(((1, 0, 0), (2, 0, 0), (0, 1, 0))) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            det3(((1, 0), (0, 1)))

    def test_multiplicative(self):
        rng = random.Random(0xDE7)
        for a, b in zip(matrices(rng, [(3, 3)], 100), matrices(rng, [(3, 3)], 100)):
            assert det3(matmul(a, b)) == det3(a) * det3(b)


class TestSmithNormalForm:
    def test_two_rows(self):
        diag, _, _ = smith_normal_form(((1, 0, 1), (1, 1, 1)))
        assert diag == [1, 1]

    def test_already_diagonal(self):
        diag, _, _ = smith_normal_form(((2, 0), (0, 2)))
        assert diag == [2, 2]

    def test_zero_matrix(self):
        diag, _, _ = smith_normal_form(((0, 0, 0),))
        assert diag == [0]

    def test_snf_contract(self):
        for m in matrices(random.Random(0x5AF), [(1, 3), (2, 3), (3, 3), (3, 2)], 300):
            diag, left, right = smith_normal_form(m)
            assert abs(det(left)) == 1
            assert abs(det(right)) == 1
            product = matmul(matmul(left, m), right)
            for i, row in enumerate(product):
                for j, value in enumerate(row):
                    assert value == (diag[i] if i == j and i < len(diag) else 0)
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0
                else:
                    assert b == 0


class TestExtendsToBasis:
    def test_examples(self):
        assert extends_to_basis(((1, 0, 1), (1, 1, 1)))
        assert extends_to_basis(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert not extends_to_basis(((2, 0, 0),))

    def test_too_many_vectors(self):
        with pytest.raises(ValueError):
            extends_to_basis(((1, 0), (0, 1), (1, 1)))

    def test_no_vectors(self):
        with pytest.raises(ValueError):
            extends_to_basis(())

    @pytest.mark.parametrize(
        "vs", [((1, 0, 0), (0, 1)), ((1, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0), (0, 0))]
    )
    def test_ragged_input(self, vs):
        with pytest.raises(ValueError):
            extends_to_basis(vs)

    def test_agrees_with_smith_normal_form(self):
        # the elementary divisors stay the reference for the minors test
        for vs in matrices(random.Random(0xE8B), [(1, 3), (2, 3), (3, 3), (2, 2)], 400):
            diag, _, _ = smith_normal_form(vs)
            assert extends_to_basis(vs) == all(d == 1 for d in diag)

    def test_invariant_under_unimodular(self):
        # the moves have determinant 1 and -1
        rng = random.Random(0x1A7)
        for vs in matrices(rng, [(2, 3)], 200):
            u = random_unimodular(rng)
            transformed = tuple(matvec(u, v) for v in vs)
            assert extends_to_basis(vs) == extends_to_basis(transformed)


def primitive_normal(rng):
    """A primitive vector whose coordinates come from [-3, 3] or up to 10^12."""
    n = (0, 0, 0)
    while not any(n):
        n = tuple(rng.randint(*rng.choice(((-3, 3), (-(10**12), 10**12)))) for _ in range(3))
    g = gcd(*n)
    return tuple(x // g for x in n)


class TestChartRows:
    def test_unimodular_and_adapted(self):
        # the rows complete n to a matrix of det 1, so the chart is unimodular
        for (n,) in matrices(random.Random(0xC4A), [(1, 3)], 100):
            if gcd(*n) != 1:
                with pytest.raises(ValueError):
                    chart_rows(n)
            else:
                assert det3((n, *chart_rows(n))) == 1

    def test_rows_of_closed_form_inverse(self):
        # against the closed-form basis (e, b1, b2): the chart rows are the
        # last two rows of its inverse, whose first row is n = b1 x b2
        rng = random.Random(0xB1B2)
        axes = [(0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0)]
        for n in axes + [primitive_normal(rng) for _ in range(500)]:
            e, b1, b2 = closed_form_plane_basis(n)
            assert chart_rows(n) == (cross(b2, e), cross(e, b1))

    def test_non_primitive_rejected(self):
        rng = random.Random(0x9C4)
        cases = [((0, 0, 0), 1), ((0, 0, 1), 2), ((0, 1, 0), 3)]
        cases += [(primitive_normal(rng), rng.randint(2, 10**6)) for _ in range(100)]
        for n, k in cases:
            with pytest.raises(ValueError, match="not primitive"):
                chart_rows(tuple(k * x for x in n))


class TestSolveHeightOne:
    def test_third_coordinate_one(self):
        w = solve_height_one((1, 0, 1), (0, 1, 1))
        assert w is not None
        assert dot(w, (1, 0, 1)) == 1
        assert dot(w, (0, 1, 1)) == 1

    def test_even_pairing_has_no_solution(self):
        assert solve_height_one((2, 0, 0), (0, 2, 0)) is None

    def test_equal_vectors(self):
        w = solve_height_one((1, 0, 0), (1, 0, 0))
        assert w is not None
        assert dot(w, (1, 0, 0)) == 1

    def test_against_box_search(self):
        # no witness in a box comfortably larger than the entries
        r = range(-10, 11)
        box = [(a, b, c) for a in r for b in r for c in r]
        for v1, v2 in matrices(random.Random(0xB0C), [(2, 3)], 300):
            w = solve_height_one(v1, v2)
            if w is not None:
                assert dot(w, v1) == 1
                assert dot(w, v2) == 1
            else:
                assert not any(dot(p, v1) == 1 and dot(p, v2) == 1 for p in box)


class TestInverseUnimodular:
    def test_inverse(self):
        # random_unimodular's swaps and sign flips give both determinants
        rng = random.Random(0x1BE)
        for _ in range(100):
            m = random_unimodular(rng)
            inv = inverse_unimodular(m)
            assert matmul(m, inv) == identity(3)
            assert matmul(inv, m) == identity(3)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            inverse_unimodular(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
