import random
from fractions import Fraction

import pytest

from conftest import fit_affine, lp_feasible, matrix_rank
from filtmult import linalg


F = Fraction


class TestSolveLinear:
    def test_known_system(self):
        sol = linalg.solve_linear([[2, 1], [1, 3]], [5, 10])
        assert sol == [F(1), F(3)]

    def test_exact_fractions(self):
        a = [[F(1, 2), F(1, 3)], [F(1, 5), F(1)]]
        x = [F(3), F(-7, 2)]
        b = [a[0][0] * x[0] + a[0][1] * x[1], a[1][0] * x[0] + a[1][1] * x[1]]
        assert linalg.solve_linear(a, b) == x

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            linalg.solve_linear([[1, 2], [2, 4]], [1, 2])

    def test_not_square_raises(self):
        with pytest.raises(ValueError):
            linalg.solve_linear([[1, 2, 3], [4, 5, 6]], [1, 2])

    def test_vandermonde_interpolation(self):
        # the shape limit extrapolation relies on: basis 1, u, u^2
        xs = [F(1, 4), F(1, 6), F(1, 8)]
        poly = lambda u: F(1, 2) + 3 * u - 5 * u * u
        rows = [[u ** j for j in range(3)] for u in xs]
        c = linalg.solve_linear(rows, [poly(u) for u in xs])
        assert c == [F(1, 2), F(3), F(-5)]


class TestInverse:
    def test_product_is_identity(self):
        rng = random.Random(11)
        for n in range(1, 7):
            while True:
                a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                if linalg.int_det(a):
                    break
            inv = linalg.inverse(a)
            for i in range(n):
                for j in range(n):
                    assert sum(a[i][k] * inv[k][j] for k in range(n)) == (i == j)

    def test_columns_solve_the_unit_systems(self):
        a = [[F(1, 2), 3, 0], [1, F(-2, 7), 4], [0, 5, F(1, 3)]]
        inv = linalg.inverse(a)
        for j in range(3):
            e = [F(int(i == j)) for i in range(3)]
            assert [row[j] for row in inv] == linalg.solve_linear(a, e)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            linalg.inverse([[1, 2], [2, 4]])

    def test_not_square_raises(self):
        with pytest.raises(ValueError):
            linalg.inverse([[1, 2, 3], [4, 5, 6]])


class TestRankAndDet:
    def test_rank_full(self):
        assert matrix_rank([[1, 0], [0, 1]]) == 2

    def test_rank_deficient(self):
        assert matrix_rank([[1, 2], [2, 4], [3, 6]]) == 1

    def test_rank_empty(self):
        assert matrix_rank([]) == 0

    def test_int_det(self):
        assert linalg.int_det([[1, 2], [3, 4]]) == -2
        assert linalg.int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert linalg.int_det([[1, 2], [2, 4]]) == 0

    def test_int_det_pivot_swap(self):
        assert linalg.int_det([[0, 1], [1, 0]]) == -1

    def test_empty_det_is_one(self):
        assert linalg.int_det([]) == 1


class TestFitAffine:
    # The closed-form affine fit lives in conftest, as the order-2 oracle
    # for the ladder weights.

    def test_interpolates_two_points(self):
        c0, c1 = fit_affine([F(1), F(2)], [F(3), F(5)])
        assert (c0, c1) == (F(1), F(2))

    def test_exact_on_collinear_overdetermined(self):
        xs = [F(1, m) for m in (8, 16, 32)]
        ys = [F(1, 2) + 3 * x for x in xs]
        c0, c1 = fit_affine(xs, ys)
        assert c0 == F(1, 2) and c1 == 3

    def test_least_squares_residual(self):
        # symmetric noise around a constant leaves the constant
        c0, c1 = fit_affine([F(-1), F(0), F(1)], [F(1), F(4), F(1)])
        assert c1 == 0
        assert c0 == F(2)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_affine([F(1)], [F(1)])

    def test_degenerate_abscissae(self):
        with pytest.raises(ValueError):
            fit_affine([F(2), F(2)], [F(0), F(1)])


class TestLpFeasible:
    # The exact LP lives in conftest, as an oracle for the geometry kernel.

    def test_feasible(self):
        # x + y = 1 with x, y >= 0
        assert lp_feasible([[1, 1]], [1])

    def test_infeasible_negative_rhs_direction(self):
        # x + y = -1 has no nonnegative solution
        assert not lp_feasible([[1, 1]], [-1])

    def test_infeasible_system(self):
        # x = 1 and x = 2 simultaneously
        assert not lp_feasible([[1], [1]], [1, 2])

    def test_feasible_needs_combination(self):
        # x - y = 0, x + y = 2 -> x = y = 1
        assert lp_feasible([[1, -1], [1, 1]], [0, 2])
