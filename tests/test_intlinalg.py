from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

entries = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols).map(tuple),
        min_size=rows,
        max_size=rows,
    ).map(tuple)


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

    @given(matrices(3, 3), matrices(3, 3))
    def test_multiplicative(self, a, b):
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

    @given(st.one_of(matrices(1, 3), matrices(2, 3), matrices(3, 3), matrices(3, 2)))
    @settings(max_examples=300)
    def test_snf_contract(self, m):
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

    @given(st.one_of(matrices(1, 3), matrices(2, 3), matrices(3, 3), matrices(2, 2)))
    @settings(max_examples=400)
    def test_agrees_with_smith_normal_form(self, vs):
        # the elementary divisors stay the reference for the minors test
        diag, _, _ = smith_normal_form(vs)
        assert extends_to_basis(vs) == all(d == 1 for d in diag)

    @given(matrices(2, 3), matrices(3, 3))
    @settings(max_examples=200)
    def test_invariant_under_unimodular(self, vs, u):
        if abs(det3(u)) != 1:
            return
        transformed = tuple(matvec(u, v) for v in vs)
        assert extends_to_basis(vs) == extends_to_basis(transformed)


# coordinates with zeros among them, and coordinates up to 10^12
coordinates = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))


@st.composite
def primitive_normals(draw):
    n = draw(st.tuples(coordinates, coordinates, coordinates).filter(any))
    g = gcd(*n)
    return tuple(x // g for x in n)


class TestChartRows:
    @given(st.tuples(entries, entries, entries))
    def test_unimodular_and_adapted(self, n):
        # the rows complete n to a matrix of det 1, so the chart is unimodular
        if gcd(gcd(n[0], n[1]), n[2]) != 1:
            with pytest.raises(ValueError):
                chart_rows(n)
            return
        assert det3((n, *chart_rows(n))) == 1

    @given(primitive_normals())
    @example((0, 0, 1))
    @example((0, 0, -1))
    @example((0, 1, 0))
    @example((0, -1, 0))
    @settings(max_examples=500)
    def test_rows_of_closed_form_inverse(self, n):
        # against the closed-form basis (e, b1, b2): the chart rows are the
        # last two rows of its inverse, whose first row is n = b1 x b2
        e, b1, b2 = closed_form_plane_basis(n)
        assert chart_rows(n) == (cross(b2, e), cross(e, b1))

    @given(primitive_normals(), st.integers(2, 10**6))
    @example((0, 0, 0), 1)
    @example((0, 0, 1), 2)
    @example((0, 1, 0), 3)
    def test_non_primitive_rejected(self, n, k):
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

    @given(matrices(2, 3))
    @settings(max_examples=300)
    def test_against_box_search(self, m):
        v1, v2 = m
        w = solve_height_one(v1, v2)
        if w is not None:
            assert dot(w, v1) == 1
            assert dot(w, v2) == 1
        else:
            # no witness in a box comfortably larger than the entries
            r = range(-10, 11)
            assert not any(
                dot((a, b, c), v1) == 1 and dot((a, b, c), v2) == 1
                for a in r
                for b in r
                for c in r
            )


class TestInverseUnimodular:
    @given(matrices(3, 3))
    def test_inverse(self, m):
        if abs(det3(m)) != 1:
            return
        inv = inverse_unimodular(m)
        assert matmul(m, inv) == identity(3)
        assert matmul(inv, m) == identity(3)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            inverse_unimodular(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
