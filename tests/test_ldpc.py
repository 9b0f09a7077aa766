"""Tests for parity-check code construction, encoding, and BP decoding."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from dmc_shaper import LdpcCode, bp_decode, build_ldpc, channel
from dmc_shaper.ldpc import BP_MAX_ITER, bp_decode_batch


def _satisfies(h, codewords):
    return not ((codewords.astype(np.int64) @ h.T) & 1).any()


# (n, rate) of the built codes the encoder and the slot tables are checked on.
CODE_GRID = [(8, 0.5), (24, 0.5), (250, 0.5), (250, 0.3125), (250, 0.125), (2000, 0.5)]

# Hand-built codes: H1 beside the accumulator, including a weight-0 H1 row.
HAND_BUILT = [
    [[1, 1, 1, 0], [0, 1, 1, 1]],
    [[1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1]],
    [[1, 1, 1, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 1, 1]],
]


def _padded_listing(groups, pad):
    """Slot table of a plain listing: column j holds groups[j], then pads."""
    width = max(len(g) for g in groups)
    return np.array([list(g) + [pad] * (width - len(g)) for g in groups]).T


class TestBuildLdpc:
    def test_rate_half_length_250(self):
        code = build_ldpc(250, 0.5, seed=0)
        assert code.n == 250
        assert code.m_checks == 125
        assert abs(code.rate - 0.5) <= 1 / 250
        assert code.message_length == 125

    @pytest.mark.parametrize("n, rate", CODE_GRID)
    def test_accumulator_code_properties(self, n, rate):
        code = build_ldpc(n, rate, seed=1)
        m, k = code.m_checks, code.message_length
        assert k == n - m
        rng = np.random.default_rng(n)
        messages = rng.integers(0, 2, size=(20, k), dtype=np.uint8)
        codewords = np.array([code.encode(msg) for msg in messages])
        assert _satisfies(code.h, codewords)
        np.testing.assert_array_equal(codewords[:, :k], messages)
        np.testing.assert_array_equal(code.h[:, :k].sum(axis=0), 3)
        accumulator = np.eye(m, dtype=np.uint8) + np.eye(m, k=-1, dtype=np.uint8)
        np.testing.assert_array_equal(code.h[:, k:], accumulator)
        # No two columns, message or parity, share two checks. At n = 8 any
        # two weight-3 columns over 4 checks share two: avoidance is best effort.
        if n > 8:
            h = code.h.astype(np.float64)
            overlap = h.T @ h
            np.fill_diagonal(overlap, 0)
            assert overlap.max() <= 1

    def test_column_weights_regular(self):
        code = build_ldpc(250, 0.5, seed=2)
        # Weight 3 on the message columns; the accumulator's are 2, then 1.
        want = np.r_[np.full(125, 3), np.full(124, 2), 1]
        np.testing.assert_array_equal(code.h.sum(axis=0), want)

    def test_row_weights_near_uniform(self):
        code = build_ldpc(250, 0.5, seed=3)
        weights = code.h.sum(axis=1)
        assert weights.min() >= 4
        assert weights.max() <= 8

    def test_no_four_cycles(self):
        code = build_ldpc(250, 0.5, seed=4)
        overlap = code.h.T.astype(np.int64) @ code.h
        np.fill_diagonal(overlap, 0)
        assert overlap.max() <= 1

    def test_rate_for_eight_bit_symbols(self):
        # total rate 2.5 over 8 bits/use -> code rate 0.3125
        code = build_ldpc(250, 0.3125, seed=5)
        assert abs(code.rate - 0.3125) <= 1 / 250
        assert code.m_checks == 172

    def test_toy_code_all_codewords_valid(self):
        code = build_ldpc(8, 0.5, seed=6)
        for bits in itertools.product([0, 1], repeat=code.message_length):
            assert _satisfies(code.h, code.encode(np.array(bits, dtype=np.uint8)))

    def test_encode_round_trips_message(self):
        code = build_ldpc(30, 0.5, seed=7)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=code.message_length, dtype=np.uint8)
        c = code.encode(msg)
        np.testing.assert_array_equal(c[: code.message_length], msg)

    def test_determinism(self):
        a = build_ldpc(100, 0.5, seed=11)
        b = build_ldpc(100, 0.5, seed=11)
        np.testing.assert_array_equal(a.h, b.h)

    def test_equality_follows_parity_matrix(self):
        a = build_ldpc(24, 0.5, seed=0)
        assert a == build_ldpc(24, 0.5, seed=0)
        assert a != build_ldpc(24, 0.5, seed=1)
        assert a == LdpcCode(a.h.copy())

    def test_different_seeds_differ(self):
        a = build_ldpc(100, 0.5, seed=12)
        b = build_ldpc(100, 0.5, seed=13)
        assert not np.array_equal(a.h, b.h)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            build_ldpc(100, 1.0)

    @pytest.mark.parametrize(
        "n, rate, match",
        [
            (10, 0.9, "1 checks for length 10 is not constructible"),
            (10, 0.01, "10 checks for length 10 is not constructible"),
            # At this length the float rounding of n (1 - rate) alone is
            # more than 1/n; the check fires before any matrix is built.
            (10**17, 0.3, "off the request"),
            # A parity-check matrix of about 7e31 bytes: refused before it is allocated.
            (10**16, 0.3, "byte budget"),
            (np.int64(10**16), 0.3, "byte budget"),
            (24.0, 0.5, "n must be an integer"),
        ],
        ids=[
            "too-few-checks", "no-message-bits", "rate-off", "over-budget",
            "numpy-over-budget", "float-length",
        ],
    )
    def test_unbuildable_request_rejected(self, n, rate, match):
        with pytest.raises(ValueError, match=match):
            build_ldpc(n, rate)

    def test_budget_counts_the_parity_check_matrix(self, monkeypatch):
        # 50 checks x 100 bits: 5,000 bytes of uint8 h.
        monkeypatch.setattr(channel, "_MAX_MATRIX_BYTES", 5000)
        assert build_ldpc(100, 0.5).h.nbytes == 5000
        monkeypatch.setattr(channel, "_MAX_MATRIX_BYTES", 4999)
        with pytest.raises(ValueError, match="needs 5000 bytes .* over the 4999-byte budget"):
            build_ldpc(100, 0.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            build_ldpc(24, 0.5, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert build_ldpc(24, 0.5, seed=np.int64(3)) == build_ldpc(24, 0.5, seed=3)

    def test_encode_wrong_length_rejected(self):
        code = build_ldpc(24, 0.5, seed=0)
        with pytest.raises(ValueError):
            code.encode(np.zeros(code.message_length + 1, dtype=np.uint8))

    @pytest.mark.parametrize("n, rate", CODE_GRID)
    def test_batch_encode_matches_stacked_encodes(self, n, rate):
        code = build_ldpc(n, rate, seed=2)
        k = code.message_length
        messages = np.random.default_rng(n).integers(0, 2, size=(6, k), dtype=np.uint8)
        want = np.array([code.encode(msg) for msg in messages])
        assert want.shape == (6, n) and want.dtype == np.uint8
        assert _satisfies(code.h, want)
        np.testing.assert_array_equal(want[:, :k], messages)
        got = code.encode(messages)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)
        stacked = code.encode(messages.reshape(2, 3, k))
        np.testing.assert_array_equal(stacked, want.reshape(2, 3, n))
        np.testing.assert_array_equal(code.encode(messages[:0]), want[:0])

    @pytest.mark.parametrize(
        "shape", [(3, 13), (2, 3, 11), (12, 3)], ids=["batch-long", "stack-short", "transposed"]
    )
    def test_batch_encode_wrong_last_axis_rejected(self, shape):
        code = build_ldpc(24, 0.5, seed=0)
        want = re.escape(f"message must have length 12, got {shape}")
        with pytest.raises(ValueError, match=want):
            code.encode(np.zeros(shape, dtype=np.uint8))

    def test_zero_d_message_rejected(self):
        # A 0-d array has no last axis to hold a message, even for k = 1.
        code = LdpcCode(np.array([[1, 1]], dtype=np.uint8))
        assert code.message_length == 1
        with pytest.raises(ValueError, match="message must have length 1, got \\(\\)"):
            code.encode(np.array(1))

    def test_batch_encode_non_binary_row_rejected(self):
        code = build_ldpc(24, 0.5, seed=0)
        messages = np.zeros((4, code.message_length))
        messages[2, 5] = 2
        with pytest.raises(ValueError, match="message bits must be 0 or 1"):
            code.encode(messages)

    @pytest.mark.parametrize("bad", [2, -1, 0.7, np.nan], ids=["two", "minus-one", "fraction", "nan"])
    def test_encode_non_binary_message_rejected(self, bad):
        code = build_ldpc(24, 0.5, seed=0)
        msg = np.zeros(code.message_length)
        msg[3] = bad
        with pytest.raises(ValueError, match="message bits must be 0 or 1"):
            code.encode(msg)

    def test_encode_accepts_bool_and_float_bits(self):
        code = build_ldpc(24, 0.5, seed=0)
        msg = np.arange(code.message_length) % 3 == 0
        want = code.encode(msg.astype(np.uint8))
        np.testing.assert_array_equal(code.encode(msg), want)
        np.testing.assert_array_equal(code.encode(msg.astype(np.float64)), want)

    @pytest.mark.parametrize(
        "h, match",
        [
            ([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]], "must be the accumulator"),
            ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0]], "must be the accumulator"),
            ([[1, 0, 1, 0], [1, 0, 1, 1]], "variable columns \\[1\\]"),
        ],
        ids=["empty-middle-row", "empty-last-row", "empty-column"],
    )
    def test_hand_built_code_without_edges_rejected(self, h, match):
        h = np.array(h, dtype=np.uint8)
        with pytest.raises(ValueError, match=match):
            LdpcCode(h=h)

    @pytest.mark.parametrize(
        "h",
        [
            [[1, 1, 1], [1, 0, 1]],  # upper, not lower, bidiagonal
            [[1, 1, 0, 1], [1, 0, 1, 1]],  # a 1 above the diagonal
        ],
        ids=["upper-bidiagonal", "extra-one"],
    )
    def test_parity_part_not_accumulator_rejected(self, h):
        with pytest.raises(ValueError, match="must be the accumulator"):
            LdpcCode(np.array(h, dtype=np.uint8))

    @pytest.mark.parametrize(
        "h, match",
        [
            (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]), "integer array"),
            (np.array([[True, True, False], [True, True, True]]), "integer array"),
            (np.array([1, 1, 0]), "2-D"),
            (np.array([[1, 1, 0], [1, 1, 0], [1, 0, 1]]), "fewer rows than columns"),
            ([[1, 1, 0], [1, 1, 1]], "integer array"),
            (np.array([[2, 1, 0], [1, 1, 1]]), "entries of h must be 0 or 1"),
            (np.array([[1, 1, 0], [-1, 1, 1]]), "entries of h must be 0 or 1"),
        ],
        ids=["float", "bool", "one-dimensional", "square", "list", "two", "minus-one"],
    )
    def test_malformed_parity_matrix_rejected(self, h, match):
        with pytest.raises(ValueError, match=match):
            LdpcCode(h)

    @pytest.mark.parametrize(
        "code",
        [build_ldpc(n, rate, seed=3) for n, rate in CODE_GRID]
        + [LdpcCode(np.array(h, dtype=np.uint8)) for h in HAND_BUILT],
        ids=[f"n{n}-r{rate}" for n, rate in CODE_GRID]
        + [f"hand-{i}" for i in range(len(HAND_BUILT))],
    )
    def test_slot_tables_list_the_entries_of_h(self, code):
        chk, var = np.nonzero(code.h)
        n_edges = chk.shape[0]
        checks = range(code.m_checks)
        row_edges = _padded_listing([np.flatnonzero(chk == c) for c in checks], n_edges)
        row_vars = _padded_listing([var[chk == c] for c in checks], code.n)
        col_edges = _padded_listing([np.flatnonzero(var == v) for v in range(code.n)], n_edges)
        for got, want in [
            (code._row_edges, row_edges), (code._row_vars, row_vars), (code._col_edges, col_edges)
        ]:
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, want)

    def test_hand_built_code_derives_its_encoder(self):
        # H1 = [[1, 1], [0, 1]] beside the 2 x 2 accumulator.
        h = np.array([[1, 1, 1, 0], [0, 1, 1, 1]], dtype=np.uint8)
        code = LdpcCode(h)
        assert code.message_length == 2 and code.rate == 0.5
        codewords = {tuple(code.encode(np.array(u))) for u in itertools.product([0, 1], repeat=2)}
        assert codewords == {(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1)}


class TestBpDecode:
    def test_noiseless_codeword_one_iteration(self):
        code = build_ldpc(30, 0.5, seed=20)
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, size=code.message_length, dtype=np.uint8)
        c = code.encode(msg)
        llrs = np.where(c == 1, 40.0, -40.0)
        res = bp_decode(code, llrs)
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_array_equal(res.bits, c)

    @staticmethod
    def _ml_codeword(code, llrs):
        best = None
        best_score = -np.inf
        for bits in itertools.product([0, 1], repeat=code.message_length):
            cw = code.encode(np.array(bits, dtype=np.uint8))
            score = float(np.sum(np.where(cw == 1, llrs, -llrs)))
            if score > best_score:
                best_score = score
                best = cw
        return best

    def test_single_flip_corrected_on_toy_code(self):
        code = build_ldpc(8, 0.5, seed=0)
        msg = np.array([1, 0, 1, 0], dtype=np.uint8)
        c = code.encode(msg)
        llrs = np.where(c == 1, 4.0, -4.0)
        llrs[0] = -llrs[0]
        # Exhaustive ML oracle: the original codeword is still the optimum.
        np.testing.assert_array_equal(self._ml_codeword(code, llrs), c)
        res = bp_decode(code, llrs)
        assert res.converged
        np.testing.assert_array_equal(res.bits, c)

    def test_every_single_flip_corrected_n12(self):
        code = build_ldpc(12, 0.5, seed=9)
        msg = np.array([1, 0, 1, 0, 1, 1], dtype=np.uint8)
        c = code.encode(msg)
        for flip in range(code.n):
            llrs = np.where(c == 1, 4.0, -4.0)
            llrs[flip] = -llrs[flip]
            np.testing.assert_array_equal(self._ml_codeword(code, llrs), c)
            res = bp_decode(code, llrs)
            assert res.converged
            np.testing.assert_array_equal(res.bits, c)

    def test_all_zero_llrs_do_not_converge(self):
        code = build_ldpc(30, 0.5, seed=22)
        res = bp_decode(code, np.zeros(code.n))
        assert not res.converged
        assert res.iterations == BP_MAX_ITER

    @pytest.mark.parametrize("with_zero_row", [False, True], ids=["nonzero", "zero-row"])
    def test_batch_rows_match_lone_decodes(self, with_zero_row):
        # Rows converge at different iterations or hit max_iter; a row of
        # zero LLRs also sends the whole batch through the zero-belief path.
        code = build_ldpc(96, 0.5, seed=31)
        rng = np.random.default_rng(5)
        msg = rng.integers(0, 2, size=code.message_length, dtype=np.uint8)
        sign = np.where(code.encode(msg) == 1, 1.0, -1.0)
        sigmas = np.linspace(0.0, 2.4, 12)
        llrs = 2.0 * sign + sigmas[:, None] * rng.standard_normal((12, code.n))
        if with_zero_row:
            llrs[5] = 0.0
        batch = bp_decode_batch(code, llrs)
        lone = [bp_decode(code, row) for row in llrs]
        iters = {r.iterations for r in lone if r.converged}
        assert len(iters) >= 2
        assert any(not r.converged and r.iterations == BP_MAX_ITER for r in lone)
        for i, r in enumerate(lone):
            np.testing.assert_array_equal(batch.bits[i], r.bits)
            assert batch.converged[i] == r.converged
            assert batch.iterations[i] == r.iterations

    def test_wrong_length_rejected(self):
        code = build_ldpc(30, 0.5, seed=23)
        with pytest.raises(ValueError):
            bp_decode(code, np.zeros(10))
        with pytest.raises(ValueError):
            bp_decode_batch(code, np.zeros(code.n))

    def test_nan_llrs_rejected(self):
        code = build_ldpc(24, 0.5)
        with pytest.raises(ValueError, match="NaN"):
            bp_decode(code, np.full(24, np.nan))
        llrs = np.full((3, 24), 4.0)
        llrs[1, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            bp_decode_batch(code, llrs)

    def test_infinite_llrs_clipped(self):
        code = build_ldpc(24, 0.5)
        c = code.encode(np.arange(code.message_length) % 2)
        llrs = np.where(c == 1, np.inf, -np.inf)
        res = bp_decode(code, llrs)
        assert res.converged and res.iterations == 1
        np.testing.assert_array_equal(res.bits, c)
