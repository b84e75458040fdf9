"""Binary query matrices: collision counts, query complexity, adaptive play."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlocate import (
    AdversaryPolicy,
    BinaryMatrix,
    CapExceededError,
    MatrixFormatError,
    Player1Policy,
    UndefinedQueryComplexityError,
    collision_stats,
    columns_pairwise_distinct,
    gamma_qc_sqc,
    qc_exact,
    qc_greedy,
    qc_threshold,
    read_matrix,
    sample_bernoulli,
    sqc_exact,
    sqc_maxgain_worstcase,
    sqc_play,
    write_matrix,
)


def mat(rows) -> BinaryMatrix:
    arr = np.array(rows, dtype=np.uint8)
    return BinaryMatrix(arr.shape[0], arr.shape[1], arr)


BALANCED = [[0, 0, 1, 1], [0, 1, 0, 1]]


class TestBinaryMatrix:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            BinaryMatrix(3, 2, np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            BinaryMatrix(0, 1, np.zeros((0, 1), dtype=np.uint8))

    def test_values_checked(self):
        with pytest.raises(ValueError):
            BinaryMatrix(1, 2, np.array([[0, 2]], dtype=np.uint8))

    def test_list_bits_checked(self):
        with pytest.raises(ValueError, match="entries must be uint8 zeros and ones"):
            BinaryMatrix(1, 2, [[0, 1]])

    def test_accepts_binary(self):
        a = mat(BALANCED)
        assert (a.m, a.n) == (2, 4)

    def test_matrices_compare_by_identity(self):
        a, twin = mat(BALANCED), mat(BALANCED)
        assert a != twin and a not in [twin]
        assert a == a and a in [twin, a]
        assert len({a, twin, a}) == 2


class TestCollisions:
    def test_no_collisions(self):
        stats = collision_stats(mat([[0, 0, 1], [0, 0, 1], [1, 0, 0]]))
        assert stats.x_pairs == 0
        assert stats.z_zero == 1
        assert stats.z_one == 0

    def test_all_zero_columns_collide(self):
        stats = collision_stats(mat([[0, 0], [0, 0]]))
        assert stats == (1, 2, 0)

    def test_all_one_columns_collide(self):
        stats = collision_stats(mat([[1, 1], [1, 1]]))
        assert stats == (1, 0, 2)

    def test_pair_count_is_binomial_over_groups(self):
        # three equal columns give three colliding pairs
        stats = collision_stats(mat([[1, 1, 1, 0], [0, 0, 0, 1]]))
        assert stats.x_pairs == 3

    def test_distinct_flag_matches_pair_count(self):
        a = sample_bernoulli(14, 1024, 0.5, 12345)
        stats = collision_stats(a)
        assert stats.x_pairs == 34
        assert stats.z_zero == 1
        assert not columns_pairwise_distinct(a)
        b = sample_bernoulli(26, 1024, 0.5, 12345)
        assert collision_stats(b).x_pairs == 0
        assert columns_pairwise_distinct(b)

    def test_wide_matrix_crosses_word_boundary(self):
        # 70 rows packs into two 64-bit words per column
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(70, 40), dtype=np.uint8)
        bits[:, 1] = bits[:, 0]
        a = BinaryMatrix(70, 40, bits)
        assert collision_stats(a).x_pairs >= 1
        assert not columns_pairwise_distinct(a)

    @staticmethod
    def loop_stats(bits: np.ndarray) -> tuple[int, int, int]:
        """(x_pairs, z_zero, z_one) by comparing every pair of columns."""
        m, n = bits.shape
        cols = [bits[:, j].tolist() for j in range(n)]
        pairs = sum(cols[i] == cols[j] for i in range(n) for j in range(i + 1, n))
        return pairs, cols.count([0] * m), cols.count([1] * m)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
    def test_counts_match_pairwise_loop(self, m):
        # row counts around multiples of 64 catch a count that reads whole
        # 64-bit words only; some copies differ from a twin in one row
        rng = np.random.default_rng(m)
        pool = rng.integers(0, 2, size=(m, 6), dtype=np.uint8)
        copies = pool[:, rng.integers(0, 6, size=40)]
        for j, row in enumerate((0, m - 1, min(m - 1, 63), min(m - 1, 64))):
            copies[row, 2 * j] ^= 1
        tables = [
            np.zeros((m, 1), np.uint8),
            np.ones((m, 5), np.uint8),
            np.zeros((m, 5), np.uint8),
            copies,
            rng.integers(0, 2, size=(m, 40), dtype=np.uint8),
        ]
        seen = set()
        for bits in tables:
            a = BinaryMatrix(m, bits.shape[1], np.ascontiguousarray(bits))
            expected = self.loop_stats(bits)
            assert tuple(collision_stats(a)) == expected
            assert columns_pairwise_distinct(a) is (expected[0] == 0)
            seen.add(expected[0] == 0)
        assert seen == {True, False}


class TestThresholdFormulas:
    def test_balanced_threshold_exact(self):
        assert qc_threshold(1024, 0.5) == 20.0

    def test_frozen_biased(self):
        assert qc_threshold(100, 0.3) == pytest.approx(16.90817125932503, rel=1e-15)

    def test_gamma_pair(self):
        gq, gs = gamma_qc_sqc(0.5)
        assert gq == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert gs == 0.5
        gq, gs = gamma_qc_sqc(0.3)
        assert gq == pytest.approx(0.7615773105863908, rel=1e-15)
        assert gs == 0.7

    def test_threshold_matches_gamma_form(self):
        for n, q in [(64, 0.5), (1024, 0.4), (5000, 0.25)]:
            gq, _ = gamma_qc_sqc(q)
            assert qc_threshold(n, q) == pytest.approx(math.log(n) / math.log(1 / gq), rel=1e-12)

    def test_balanced_q_minimizes_threshold(self):
        base = qc_threshold(1024, 0.5)
        for q in (0.1, 0.3, 0.45, 0.55, 0.9):
            assert qc_threshold(1024, q) > base

    def test_validation(self):
        with pytest.raises(ValueError):
            qc_threshold(1, 0.5)
        with pytest.raises(ValueError):
            qc_threshold(100, 0.0)
        with pytest.raises(ValueError):
            gamma_qc_sqc(1.0)


class TestQueryComplexity:
    def test_balanced_code(self):
        assert qc_exact(mat(BALANCED)) == (2, (0, 1))
        assert qc_greedy(mat(BALANCED)) == (0, 1)

    def test_identity(self):
        a = mat(np.eye(4, dtype=np.uint8))
        assert qc_exact(a) == (3, (0, 1, 2))
        assert qc_greedy(a) == (0, 1, 2)

    def test_two_columns(self):
        a = mat(np.eye(2, dtype=np.uint8))
        assert qc_exact(a) == (1, (0,))

    def test_single_column_needs_nothing(self):
        assert qc_exact(mat([[0], [1]])) == (0, ())

    def test_one_row(self):
        assert qc_exact(mat([[0, 1]])) == (1, (0,))

    def test_equal_columns_undefined(self):
        with pytest.raises(UndefinedQueryComplexityError):
            qc_exact(mat([[1, 1], [0, 0]]))
        with pytest.raises(UndefinedQueryComplexityError):
            qc_greedy(mat([[1, 1], [0, 0]]))

    def test_cap(self):
        a = mat(np.eye(4, dtype=np.uint8))
        with pytest.raises(CapExceededError):
            qc_exact(a, cap=2)
        assert qc_exact(a, cap=3)[0] == 3

    def test_greedy_rows_separate_columns(self):
        a = sample_bernoulli(12, 40, 0.5, 1)
        assert columns_pairwise_distinct(a)
        rows = qc_greedy(a)
        sub = a.bits[list(rows)]
        assert len(np.unique(sub, axis=1).T) == a.n


class TestSequentialComplexity:
    def test_balanced_code(self):
        assert sqc_exact(mat(BALANCED)) == 2
        assert sqc_maxgain_worstcase(mat(BALANCED)) == 2

    def test_identity(self):
        a = mat(np.eye(4, dtype=np.uint8))
        assert sqc_exact(a) == 3
        assert sqc_maxgain_worstcase(a) == 3

    def test_two_columns(self):
        assert sqc_exact(mat(np.eye(2, dtype=np.uint8))) == 1

    def test_single_column(self):
        assert sqc_exact(mat([[1]])) == 0

    def test_equal_columns_undefined(self):
        with pytest.raises(UndefinedQueryComplexityError):
            sqc_exact(mat([[1, 1], [0, 0]]))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            sqc_exact(mat(np.eye(4, dtype=np.uint8)), cap=2)

    def test_play_transcript(self):
        t = sqc_play(mat(BALANCED), Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())
        assert t.resolved
        assert [(s.step, s.query, s.answer, s.candidates) for s in t.steps] == [
            (1, 0, 0, 2),
            (2, 1, 0, 1),
        ]
        assert t.final_candidates.tolist() == [0]

    def test_play_fixed_target(self):
        t = sqc_play(mat(BALANCED), Player1Policy.max_gain(), AdversaryPolicy.fixed_target(2))
        assert t.resolved
        assert [(s.query, s.answer) for s in t.steps] == [(0, 1), (1, 0)]
        assert t.final_candidates.tolist() == [2]

    def test_play_step_cap(self):
        t = sqc_play(
            mat(BALANCED),
            Player1Policy.max_gain(),
            AdversaryPolicy.greedy_max_cell(),
            step_cap=1,
        )
        assert not t.resolved
        assert t.num_steps == 1


class TestMatrixFormat:
    def test_round_trip(self):
        a = mat(BALANCED)
        text = write_matrix(a)
        assert text == "2 4\n0011\n0101\n"
        b = read_matrix(text)
        assert (b.bits == a.bits).all()
        assert (b.m, b.n) == (2, 4)

    def test_round_trip_random(self):
        a = sample_bernoulli(9, 33, 0.4, 3)
        b = read_matrix(write_matrix(a))
        assert (b.bits == a.bits).all()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n01\n10\n",
            "0 3\n",  # no rows
            "2 2\n01\n",  # missing row
            "2 2\n01\n10\n11\n",  # extra row
            "2 2\n012\n10\n",  # row too long
            "2 2\n0x\n10\n",  # bad digit
            "2 2\n01\n1\n",  # row too short
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(MatrixFormatError):
            read_matrix(text)


class TestSampling:
    def test_deterministic(self):
        a = sample_bernoulli(5, 7, 0.5, 11)
        b = sample_bernoulli(5, 7, 0.5, 11)
        assert (a.bits == b.bits).all()

    def test_generator_continues_its_stream(self):
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        first, second = sample_bernoulli(6, 9, 0.5, rng), sample_bernoulli(6, 9, 0.5, rng)
        assert (first.bits == sample_bernoulli(6, 9, 0.5, twin).bits).all()
        assert (second.bits == sample_bernoulli(6, 9, 0.5, twin).bits).all()
        assert (first.bits != second.bits).any()

    def test_mean_near_q(self):
        a = sample_bernoulli(200, 200, 0.3, 2)
        assert abs(float(a.bits.mean()) - 0.3) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_bernoulli(0, 5, 0.5, 1)
        with pytest.raises(ValueError):
            sample_bernoulli(5, 5, 1.5, 1)


@settings(max_examples=50, deadline=None)
@given(
    m_rows=st.integers(min_value=1, max_value=6),
    n_cols=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=5_000),
)
def test_complexity_chain(m_rows, n_cols, seed):
    a = sample_bernoulli(m_rows, n_cols, 0.5, seed)
    if not columns_pairwise_distinct(a):
        return
    s = sqc_exact(a)
    qc, rows = qc_exact(a)
    greedy = qc_greedy(a)
    assert s <= sqc_maxgain_worstcase(a) <= a.m
    assert s <= qc <= len(greedy) <= a.m
    assert len(rows) == qc
