"""Tests for the one-bit quantized QPSK MIMO channel construction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dmc_shaper import (
    ComplexChannelMatrix,
    SnrPoint,
    build_quantized_mimo,
    enumerate_qpsk_inputs,
    example_h4x4,
    load_h_matrix,
    sample_receive_many,
)
from dmc_shaper import mimo
from dmc_shaper.mimo import output_index_from_signs, qpsk_rotation


def random_h(n, t, seed):
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) * np.sqrt(0.5)
    return ComplexChannelMatrix(gains)


class TestSnrPoint:
    def test_from_db(self):
        snr = SnrPoint.from_db(10.0)
        assert snr.ptr_over_sigma2 == pytest.approx(10.0)
        # The linear value is the expression channels were always built with.
        assert SnrPoint.from_db(-12.5).ptr_over_sigma2 == 10.0 ** (-12.5 / 10.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            SnrPoint.from_db(-np.inf)

    @pytest.mark.parametrize(
        "db", [np.inf, np.nan, 4000.0, np.float64(4000.0)],
        ids=["inf", "nan", "4000", "numpy-4000"],
    )
    def test_unusable_db_rejected(self, db):
        with pytest.raises(ValueError, match="finite positive"):
            SnrPoint.from_db(db)


class TestQpskEnumeration:
    def test_t1_first_point(self):
        xs = enumerate_qpsk_inputs(1)
        assert xs.shape == (4, 1)
        assert xs[0, 0] == pytest.approx((1 + 1j) / np.sqrt(2))
        assert abs(np.vdot(xs[0], xs[0])) == pytest.approx(1.0, abs=1e-14)

    def test_t2_count_and_magnitudes(self):
        xs = enumerate_qpsk_inputs(2)
        assert xs.shape == (16, 2)
        np.testing.assert_allclose(np.abs(xs), 1 / np.sqrt(2), rtol=1e-15)

    def test_unit_energy_all_vectors(self):
        for t in (1, 2, 3, 4):
            xs = enumerate_qpsk_inputs(t)
            norms = np.sum(np.abs(xs) ** 2, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-14)

    def test_t4_cardinality(self):
        assert enumerate_qpsk_inputs(4).shape == (256, 4)

    def test_antenna_one_most_significant(self):
        xs = enumerate_qpsk_inputs(2)
        s = 1 / np.sqrt(4)
        # index 1 = digits (0, 1): antenna 1 point 0, antenna 2 point 1.
        assert xs[1, 0] == pytest.approx((1 + 1j) * s)
        assert xs[1, 1] == pytest.approx((1 - 1j) * s)
        # index 4 = digits (1, 0).
        assert xs[4, 0] == pytest.approx((1 - 1j) * s)
        assert xs[4, 1] == pytest.approx((1 + 1j) * s)

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_qpsk_inputs(0)
        with pytest.raises(ValueError):
            enumerate_qpsk_inputs(9)


class TestBundledExample:
    def test_shape_and_entries(self):
        h = example_h4x4()
        assert h.n_rx == 4 and h.n_tx == 4
        assert h.entries[0, 0] == pytest.approx(-0.31 + 0.75j)
        assert h.entries[1, 3] == pytest.approx(1.54 + 0.40j)
        assert h.entries[3, 2] == pytest.approx(0.51 - 1.13j)

    def test_json_round_trip(self, tmp_path):
        h = example_h4x4()
        path = tmp_path / "h.json"
        path.write_text(__import__("json").dumps(h.to_dict()))
        back = load_h_matrix(path)
        np.testing.assert_array_equal(back.entries, h.entries)


class TestBuildQuantizedMimo:
    def test_zero_gain_gives_uniform_outputs(self):
        h = ComplexChannelMatrix(np.zeros((2, 1)))
        ch = build_quantized_mimo(h, SnrPoint.from_db(10.0))
        np.testing.assert_allclose(ch.trans, 1.0 / 16.0, rtol=1e-12)

    def test_high_snr_limit_is_deterministic_map(self):
        h = random_h(2, 2, seed=3)
        ch = build_quantized_mimo(h, SnrPoint.from_db(120.0))
        xs = enumerate_qpsk_inputs(2)
        comp = np.empty((16, 4))
        g = xs @ h.entries.T
        comp[:, 0::2] = g.real
        comp[:, 1::2] = g.imag
        want = output_index_from_signs(comp >= 0)
        got = ch.trans.argmax(axis=1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(ch.trans.max(axis=1), 1.0, atol=1e-9)

    def test_alphabet_sizes(self):
        ch = build_quantized_mimo(random_h(3, 2, seed=0), SnrPoint.from_db(0.0))
        assert ch.num_inputs == 16
        assert ch.num_outputs == 64

    def test_output_bit_convention(self):
        # Real part of antenna i sits at bit 2(i-1), imaginary at 2(i-1)+1,
        # bit value 1 for a positive component. With H = I the noiseless sign
        # pattern of input x is x itself.
        h = ComplexChannelMatrix(np.eye(1))
        ch = build_quantized_mimo(h, SnrPoint.from_db(100.0))
        # digit 0 -> (+1+1j): R>0, I>0 -> bits (1,1) -> index 3
        # digit 1 -> (+1-1j): R>0, I<0 -> bits (1,0) -> index 1
        # digit 2 -> (-1+1j): R<0, I>0 -> bits (0,1) -> index 2
        # digit 3 -> (-1-1j): R<0, I<0 -> bits (0,0) -> index 0
        np.testing.assert_array_equal(ch.trans.argmax(axis=1), [3, 1, 2, 0])

    def test_rows_sum_to_one_across_snr(self):
        h = example_h4x4()
        for snr_db in (-10.0, 0.0, 15.0, 30.0):
            ch = build_quantized_mimo(h, SnrPoint.from_db(snr_db))
            np.testing.assert_allclose(ch.trans.sum(axis=1), 1.0, atol=1e-9)

    def test_global_sign_symmetry(self):
        h = random_h(2, 2, seed=7)
        neg = ComplexChannelMatrix(-h.entries)
        snr = SnrPoint.from_db(5.0)
        a = build_quantized_mimo(h, snr)
        b = build_quantized_mimo(neg, snr)
        flip = (2**4 - 1) - np.arange(2**4)
        np.testing.assert_allclose(b.trans, a.trans[:, flip], rtol=1e-12)

    def test_rotation_symmetry(self):
        # x -> jx relabels the inputs and, through the sign quadrants, the
        # outputs; every row of jx is a column permutation of the row of x.
        for t in (1, 2, 3):
            perm = qpsk_rotation(t)
            xs = enumerate_qpsk_inputs(t)
            np.testing.assert_allclose(xs[perm], 1j * xs, atol=1e-15)
            ch = build_quantized_mimo(random_h(t, t, seed=t), SnrPoint.from_db(5.0))
            np.testing.assert_allclose(
                np.sort(ch.trans[perm], axis=1), np.sort(ch.trans, axis=1), rtol=1e-12
            )

    def test_log_linear_agreement(self):
        h = random_h(2, 2, seed=9)
        ch = build_quantized_mimo(h, SnrPoint.from_db(20.0))
        big = ch.trans > 1e-250
        np.testing.assert_allclose(
            np.exp(ch.log_trans[big]), ch.trans[big], rtol=1e-9
        )

    def test_log_row_keeps_finite_values_where_linear_underflows(self):
        h = example_h4x4()
        ch = build_quantized_mimo(h, SnrPoint.from_db(30.0))
        zero = ch.trans == 0.0
        assert zero.any()
        assert np.isfinite(ch.log_trans[zero]).all()

    def test_matrix_byte_budget(self):
        # T=N=8 (M=L=2^16) needs a 34 GB matrix; it must be refused before
        # anything of that size exists.
        h = random_h(8, 8, seed=2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="byte budget"):
                build_quantized_mimo(h, SnrPoint.from_db(0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sign_table_counts_toward_byte_budget(self, monkeypatch):
        # T=1, N=7: the 4 x 16384 matrix takes 512 KiB, but the (16384, 14)
        # float64 sign table takes 1.75 MiB.
        monkeypatch.setattr(mimo, "_MAX_MATRIX_BYTES", 1 << 20)
        with pytest.raises(ValueError, match="sign table"):
            build_quantized_mimo(random_h(7, 1, seed=3), SnrPoint.from_db(0.0))


class TestSampleReceive:
    def test_noiseless_matches_sign_pattern(self):
        h = random_h(2, 2, seed=5)
        xs = enumerate_qpsk_inputs(2)
        snr = SnrPoint.from_db(140.0)
        ch = build_quantized_mimo(h, snr)
        for i in (0, 3, 9, 15):
            (got,) = sample_receive_many(h, xs[i], snr, np.random.default_rng(0))
            assert got == int(ch.trans[i].argmax())

    def test_fixed_seed_reproducible(self):
        h = random_h(2, 2, seed=6)
        xs = enumerate_qpsk_inputs(2)
        snr = SnrPoint.from_db(5.0)
        a = sample_receive_many(h, xs, snr, np.random.default_rng(123))
        b = sample_receive_many(h, xs, snr, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_histogram_matches_analytic_row(self):
        # 10^6 draws from one input against the analytic transition row:
        # every bin within 3 sigma of its multinomial expectation.
        h = random_h(2, 2, seed=11)
        snr = SnrPoint.from_db(10.0)
        ch = build_quantized_mimo(h, snr)
        xs = enumerate_qpsk_inputs(2)
        n = 1_000_000
        rng = np.random.default_rng(2024)
        y = sample_receive_many(h, np.tile(xs[5], (n, 1)), snr, rng)
        counts = np.bincount(y, minlength=16)
        expect = n * ch.trans[5]
        sigma = np.sqrt(n * ch.trans[5] * (1 - ch.trans[5]))
        assert np.all(np.abs(counts - expect) <= 3.0 * np.maximum(sigma, 1.0))


class TestComplexChannelMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ComplexChannelMatrix(np.array([[np.inf + 0j]]))

    @pytest.mark.parametrize(
        "entries", [np.zeros((0, 2)), np.zeros((2, 0)), np.ones(3), np.ones((1, 1, 1))],
        ids=["no-rows", "no-columns", "1-d", "3-d"],
    )
    def test_rejects_empty_or_not_2d(self, entries):
        with pytest.raises(ValueError, match="2-D and non-empty"):
            ComplexChannelMatrix(entries)

    def test_rejects_bad_dict(self):
        with pytest.raises(ValueError):
            ComplexChannelMatrix.from_dict({"re": [[1.0]]})

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ComplexChannelMatrix.from_dict({"re": [[1.0]], "im": [[1.0], [2.0]]})
