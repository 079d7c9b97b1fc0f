"""Tests for the sparse LP builder."""

import numpy as np
import pytest

from repro.lp.model import ConstraintSense, LinearProgram


class TestVariables:
    def test_blocks_are_contiguous(self):
        lp = LinearProgram()
        a = lp.add_variables("a", 3)
        b = lp.add_variables("b", 2)
        assert a.start == 0 and a.stop == 3
        assert b.start == 3 and b.stop == 5
        assert lp.num_variables == 5

    def test_duplicate_block_name_rejected(self):
        lp = LinearProgram()
        lp.add_variables("x", 1)
        with pytest.raises(ValueError):
            lp.add_variables("x", 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram().add_variables("x", -1)

    def test_block_lookup(self):
        lp = LinearProgram()
        lp.add_variables("x", 4)
        assert lp.block("x").size == 4

    def test_reshape(self):
        lp = LinearProgram()
        block = lp.add_variables("x", 6)
        arr = block.reshape(2, 3)
        assert arr.shape == (2, 3)
        assert arr[1, 2] == 5

    def test_reshape_wrong_size(self):
        lp = LinearProgram()
        block = lp.add_variables("x", 6)
        with pytest.raises(ValueError):
            block.reshape(4, 2)

    def test_bounds_default_nonnegative(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        _, _, _, _, _, (lower, upper) = lp.build_matrices()
        np.testing.assert_array_equal(lower, [0.0, 0.0])
        np.testing.assert_array_equal(upper, [np.inf, np.inf])

    def test_fix_variable(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        lp.fix_variable(1, 0.0)
        _, _, _, _, _, (lower, upper) = lp.build_matrices()
        assert (lower[1], upper[1]) == (0.0, 0.0)

    def test_set_bounds(self):
        lp = LinearProgram()
        lp.add_variables("x", 1)
        lp.set_bounds(0, 2.0, 5.0)
        _, _, _, _, _, (lower, upper) = lp.build_matrices()
        assert (lower[0], upper[0]) == (2.0, 5.0)


class TestObjective:
    def test_objective_accumulates(self):
        lp = LinearProgram()
        lp.add_variables("x", 3)
        lp.set_objective_coefficient(0, 2.0)
        lp.set_objective_coefficient(0, 1.0)
        lp.set_objective([1, 2], [5.0, 7.0])
        np.testing.assert_allclose(lp.objective_vector(), [3.0, 5.0, 7.0])

    def test_objective_shape_mismatch(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        with pytest.raises(ValueError):
            lp.set_objective([0, 1], [1.0])


class TestConstraints:
    def test_less_equal_row(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        lp.add_constraint([0, 1], [1.0, 2.0], "<=", 3.0)
        _, a_ub, b_ub, a_eq, b_eq, _ = lp.build_matrices()
        assert a_ub.shape == (1, 2)
        np.testing.assert_allclose(a_ub.toarray(), [[1.0, 2.0]])
        np.testing.assert_allclose(b_ub, [3.0])
        assert a_eq is None and b_eq is None

    def test_greater_equal_is_negated(self):
        lp = LinearProgram()
        lp.add_variables("x", 1)
        lp.add_constraint([0], [2.0], ">=", 4.0)
        _, a_ub, b_ub, _, _, _ = lp.build_matrices()
        np.testing.assert_allclose(a_ub.toarray(), [[-2.0]])
        np.testing.assert_allclose(b_ub, [-4.0])

    def test_equality_row(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        lp.add_constraint([0, 1], [1.0, 1.0], ConstraintSense.EQUAL, 1.0)
        _, a_ub, b_ub, a_eq, b_eq, _ = lp.build_matrices()
        assert a_ub is None
        np.testing.assert_allclose(a_eq.toarray(), [[1.0, 1.0]])
        np.testing.assert_allclose(b_eq, [1.0])

    def test_empty_constraint_rejected(self):
        lp = LinearProgram()
        lp.add_variables("x", 1)
        with pytest.raises(ValueError):
            lp.add_constraint([], [], "<=", 0.0)

    def test_length_mismatch_rejected(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        with pytest.raises(ValueError):
            lp.add_constraint([0, 1], [1.0], "<=", 0.0)

    def test_counts(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        lp.add_constraint([0], [1.0], "<=", 1.0)
        lp.add_constraint([1], [1.0], "==", 1.0)
        assert lp.num_inequality_constraints == 1
        assert lp.num_equality_constraints == 1
        assert lp.num_constraints == 2


class TestBatchConstraints:
    def test_batch_rows_offset_correctly(self):
        lp = LinearProgram()
        lp.add_variables("x", 3)
        lp.add_constraint([0], [1.0], "<=", 5.0)
        # Two more rows via a batch.
        lp.add_constraints_batch(
            row_indices=np.array([0, 0, 1]),
            col_indices=np.array([0, 1, 2]),
            values=np.array([1.0, 1.0, 2.0]),
            rhs=np.array([4.0, 6.0]),
            sense="<=",
        )
        _, a_ub, b_ub, _, _, _ = lp.build_matrices()
        assert a_ub.shape == (3, 3)
        np.testing.assert_allclose(b_ub, [5.0, 4.0, 6.0])
        np.testing.assert_allclose(a_ub.toarray()[1], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(a_ub.toarray()[2], [0.0, 0.0, 2.0])

    def test_batch_equality(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        lp.add_constraints_batch(
            row_indices=np.array([0, 1]),
            col_indices=np.array([0, 1]),
            values=np.array([1.0, 1.0]),
            rhs=np.array([1.0, 2.0]),
            sense="==",
        )
        _, _, _, a_eq, b_eq, _ = lp.build_matrices()
        assert a_eq.shape == (2, 2)
        np.testing.assert_allclose(b_eq, [1.0, 2.0])

    def test_batch_greater_equal_negates(self):
        lp = LinearProgram()
        lp.add_variables("x", 1)
        lp.add_constraints_batch(
            row_indices=np.array([0]),
            col_indices=np.array([0]),
            values=np.array([3.0]),
            rhs=np.array([6.0]),
            sense=">=",
        )
        _, a_ub, b_ub, _, _, _ = lp.build_matrices()
        np.testing.assert_allclose(a_ub.toarray(), [[-3.0]])
        np.testing.assert_allclose(b_ub, [-6.0])

    def test_batch_shape_mismatch_rejected(self):
        lp = LinearProgram()
        lp.add_variables("x", 2)
        with pytest.raises(ValueError):
            lp.add_constraints_batch(
                np.array([0]), np.array([0, 1]), np.array([1.0]), np.array([1.0]), "<="
            )

    def test_batch_row_out_of_range_rejected(self):
        lp = LinearProgram()
        lp.add_variables("x", 1)
        with pytest.raises(ValueError):
            lp.add_constraints_batch(
                np.array([2]), np.array([0]), np.array([1.0]), np.array([1.0]), "<="
            )


class TestSummary:
    def test_size_summary(self):
        lp = LinearProgram(name="demo")
        lp.add_variables("x", 3)
        lp.add_constraint([0, 1], [1.0, 1.0], "<=", 1.0)
        lp.add_constraint([2], [1.0], "==", 1.0)
        summary = lp.size_summary()
        assert summary["variables"] == 3
        assert summary["inequality_constraints"] == 1
        assert summary["equality_constraints"] == 1
        assert summary["nonzeros"] == 3
        assert "demo" in repr(lp)
