"""Tests for parity-check code construction, encoding, and BP decoding."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from dmc_shaper import LdpcCode, bp_decode, build_ldpc, ldpc
from dmc_shaper.ldpc import BP_MAX_ITER, RankDeficientError, bp_decode_batch


class TestBuildLdpc:
    def test_rate_half_length_250(self):
        code = build_ldpc(250, 0.5, seed=0)
        assert code.n == 250
        assert code.m_checks == 125
        assert abs(code.rate - 0.5) <= 1 / 250
        assert code.message_length == 125

    def test_generator_annihilates_parity(self):
        code = build_ldpc(250, 0.5, seed=1)
        prod = (code.generator.astype(np.int64) @ code.h.T) & 1
        assert not prod.any()

    def test_column_weights_regular(self):
        code = build_ldpc(250, 0.5, seed=2)
        np.testing.assert_array_equal(code.h.sum(axis=0), 3)

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
            c = code.encode(np.array(bits, dtype=np.uint8))
            assert not ((code.h.astype(np.int64) @ c) & 1).any()

    def test_encode_round_trips_message(self):
        code = build_ldpc(30, 0.5, seed=7)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=code.message_length, dtype=np.uint8)
        c = code.encode(msg)
        np.testing.assert_array_equal(c[code.message_positions], msg)

    def test_determinism(self):
        a = build_ldpc(100, 0.5, seed=11)
        b = build_ldpc(100, 0.5, seed=11)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.generator, b.generator)

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
            # Dense arrays of about 4e32 bytes: refused before any is allocated.
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

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            build_ldpc(24, 0.5, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert build_ldpc(24, 0.5, seed=np.int64(3)) == build_ldpc(24, 0.5, seed=3)

    def test_light_check_row_redrawn(self, monkeypatch):
        # A first draw with a check row of weight 1 is discarded, and the
        # code of the second attempt's stream is returned.
        fill = ldpc._fill_parity_matrix
        draws = []

        def light_first_draw(n, m, rng):
            h = fill(n, m, rng)
            if not draws:
                h[0] = 0
                h[0, 0] = 1
            draws.append(h)
            return h

        monkeypatch.setattr(ldpc, "_fill_parity_matrix", light_first_draw)
        code = build_ldpc(24, 0.5, seed=0)
        assert len(draws) == 2
        assert code == LdpcCode(fill(24, 12, np.random.default_rng([0, 1])))

    def test_encode_wrong_length_rejected(self):
        code = build_ldpc(24, 0.5, seed=0)
        with pytest.raises(ValueError):
            code.encode(np.zeros(code.message_length + 1, dtype=np.uint8))

    @pytest.mark.parametrize(
        "h, match",
        [
            ([[1, 1, 0], [0, 0, 0], [0, 1, 1]], "check rows \\[1\\]"),
            ([[1, 1, 0], [0, 1, 1], [0, 0, 0]], "check rows \\[2\\]"),
            ([[1, 0, 0], [1, 0, 1]], "variable columns \\[1\\]"),
        ],
        ids=["empty-middle-row", "empty-last-row", "empty-column"],
    )
    def test_hand_built_code_without_edges_rejected(self, h, match):
        h = np.array(h, dtype=np.uint8)
        with pytest.raises(ValueError, match=match):
            LdpcCode(h=h)

    def test_hand_built_code_derives_its_encoder(self):
        h = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=np.uint8)
        code = LdpcCode(h)
        assert code.message_length == 2 and code.rate == 0.5
        assert not ((code.generator.astype(np.int64) @ h.T) & 1).any()
        np.testing.assert_array_equal(code.generator[:, code.message_positions], np.eye(2))

    def test_rank_deficient_parity_matrix_rejected(self):
        h = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        with pytest.raises(RankDeficientError, match="rank 2 < 3"):
            LdpcCode(h)

    def test_degenerate_construction_fails_after_retries(self):
        # Three checks and weight-3 columns force identical rows: rank 1 < 3.
        with pytest.raises(ValueError, match="10 attempts"):
            build_ldpc(6, 0.5, seed=0)


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
