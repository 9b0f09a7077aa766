"""Tests for bit mapping, LLR computation, and the coded link simulation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmc_shaper import (
    BerRecord,
    ComplexChannelMatrix,
    DmcChannel,
    SnrPoint,
    SubsetMask,
    SymbolLabeling,
    average_ber_records,
    bp_decode,
    build_ldpc,
    build_quantized_mimo,
    compute_llrs_block,
    enumerate_qpsk_inputs,
    exhaustive_select,
    map_bits,
    run_coded_ber,
    sample_receive_many,
    link,
    rates,
    ser_ml,
)


def demap_bits(indices, lab):
    """Inverse of map_bits (padding included)."""
    indices = np.asarray(indices)
    order = np.argsort(lab.selected)
    at = np.searchsorted(lab.selected, indices, sorter=order)
    ranks = order[np.minimum(at, order.shape[0] - 1)]
    if not np.array_equal(lab.selected[ranks], indices):
        raise ValueError("index not in the selected subset")
    return lab.label_bits()[:, ranks].T.astype(np.uint8).ravel()


def random_h(n, t, seed):
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) * np.sqrt(0.5)
    return ComplexChannelMatrix(gains)


class TestSymbolLabeling:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            SymbolLabeling.from_mask(SubsetMask.from_indices(8, [0, 1, 2]))

    def test_bits_per_symbol(self):
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(8, [1, 3, 4, 6]))
        assert lab.bits_per_symbol == 2

    def test_label_bits_bijective(self):
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(16, [0, 2, 8, 9]))
        bits = lab.label_bits()
        columns = {tuple(bits[:, r]) for r in range(4)}
        assert len(columns) == 4


class TestMapBits:
    def test_two_bit_groups(self):
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(8, [2, 3, 5, 7]))
        indices, n_pad = map_bits(np.array([0, 1, 1, 0]), lab)
        # groups (0,1) -> rank 1, (1,0) -> rank 2
        np.testing.assert_array_equal(indices, [3, 5])
        assert n_pad == 0

    def test_padding_recorded(self):
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(8, [0, 1, 2, 3]))
        indices, n_pad = map_bits(np.array([1, 0, 1]), lab)
        assert n_pad == 1
        np.testing.assert_array_equal(indices, [2, 2])  # (1,0) then (1,0-pad)

    def test_250_bits_on_32_symbols(self):
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(256, range(32)))
        indices, n_pad = map_bits(np.zeros(250, dtype=np.uint8), lab)
        assert indices.shape == (50,)
        assert n_pad == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 4))
        m = 2 ** int(rng.integers(q, 5))
        sel = np.sort(rng.choice(m, size=2**q, replace=False))
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(m, sel))
        n_bits = int(rng.integers(1, 40))
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        indices, n_pad = map_bits(bits, lab)
        back = demap_bits(indices, lab)
        np.testing.assert_array_equal(back[:n_bits], bits)
        assert back.shape[0] == n_bits + n_pad

    @pytest.mark.parametrize(
        "index", [7, 0, 5, -1], ids=["above-largest", "below", "gap", "negative"]
    )
    def test_index_outside_subset_rejected(self, index):
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(8, [1, 3, 4, 6]))
        with pytest.raises(ValueError, match="not in the selected subset"):
            demap_bits([index], lab)

    def test_non_binary_bits_rejected(self):
        # A 2 would otherwise carry into the next bit of its group.
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(8, range(8)))
        with pytest.raises(ValueError, match="0 or 1"):
            map_bits(np.array([0, 2, 1, 1]), lab)

    def test_round_trip_with_unsorted_labeling(self):
        lab = SymbolLabeling(selected=np.array([6, 1, 4, 3]))
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
        indices, _ = map_bits(bits, lab)
        np.testing.assert_array_equal(indices, [6, 1, 4, 3])
        np.testing.assert_array_equal(demap_bits(indices, lab), bits)


class TestComputeLlrs:
    def test_two_symbol_log_odds(self):
        ch = DmcChannel.from_probs(np.array([[0.8, 0.2], [0.2, 0.8]]))
        lab = SymbolLabeling.from_mask(SubsetMask.full(2))
        llr = compute_llrs_block(ch, lab, [0])[0]
        assert llr[0] == pytest.approx(math.log(0.2 / 0.8), abs=1e-12)

    def test_symmetric_partition_gives_zero(self):
        p = np.array(
            [[0.4, 0.6], [0.1, 0.9], [0.4, 0.6], [0.1, 0.9]]
        )
        ch = DmcChannel.from_probs(p)
        lab = SymbolLabeling.from_mask(SubsetMask.full(4))
        # Bit 0 splits {0,1} vs {2,3}: likelihoods match pairwise.
        llr = compute_llrs_block(ch, lab, [0])[0]
        assert llr[0] == pytest.approx(0.0, abs=1e-12)

    def test_posterior_consistency(self):
        rng = np.random.default_rng(5)
        ch = DmcChannel.from_probs(rng.dirichlet(np.ones(6), size=8))
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(8, [0, 2, 3, 7]))
        bits = lab.label_bits()
        for y in range(6):
            llr = compute_llrs_block(ch, lab, [y])[0]
            probs = ch.trans[lab.selected, y]
            for j in range(2):
                want = probs[bits[j]].sum() / probs.sum()
                got = 1.0 / (1.0 + math.exp(-llr[j]))
                assert got == pytest.approx(want, abs=1e-9)

    def test_clipping(self):
        p = np.array([[1.0 - 1e-30, 1e-30], [1e-30, 1.0 - 1e-30]])
        ch = DmcChannel.from_probs(p)
        lab = SymbolLabeling.from_mask(SubsetMask.full(2))
        llr = compute_llrs_block(ch, lab, [0])[0]
        assert llr[0] == -40.0

    def test_unreachable_output_warns_and_zeroes(self):
        p = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        ch = DmcChannel.from_probs(p)
        lab = SymbolLabeling.from_mask(SubsetMask.from_indices(3, [0, 1]))
        with pytest.warns(RuntimeWarning, match="zero likelihood"):
            llr = compute_llrs_block(ch, lab, [2])[0]
        np.testing.assert_array_equal(llr, [0.0])

    @pytest.mark.parametrize("y", [-1, 2], ids=["negative", "past-end"])
    def test_output_index_outside_alphabet_rejected(self, y):
        ch = DmcChannel.from_probs(np.array([[0.8, 0.2], [0.2, 0.8]]))
        lab = SymbolLabeling.from_mask(SubsetMask.full(2))
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            compute_llrs_block(ch, lab, [y])

    def test_block_matches_scalar(self):
        rng = np.random.default_rng(9)
        ch = DmcChannel.from_probs(rng.dirichlet(np.ones(5), size=4))
        lab = SymbolLabeling.from_mask(SubsetMask.full(4))
        block = compute_llrs_block(ch, lab, np.array([0, 3, 1]))
        for row, y in zip(block, (0, 3, 1)):
            np.testing.assert_allclose(row, compute_llrs_block(ch, lab, [y])[0], atol=0)


class TestUncodedMonteCarlo:
    def test_symbol_error_frequency_matches_ser(self):
        # ML decoding of sampled outputs reproduces the analytic SER within
        # 3 sigma binomial bounds.
        h = random_h(2, 2, seed=77)
        snr = SnrPoint.from_db(10.0)
        ch = build_quantized_mimo(h, snr)
        mask = SubsetMask.from_indices(16, [1, 4, 9, 14])
        sel = mask.indices
        table = enumerate_qpsk_inputs(2)
        n = 100_000
        rng = np.random.default_rng(4321)
        sent = rng.integers(0, 4, size=n)
        y = sample_receive_many(h, table[sel[sent]], snr, rng)
        decoded = ch.trans[sel][:, y].argmax(axis=0)
        p_err = float((decoded != sent).mean())
        ser = ser_ml(ch, mask)
        sigma = math.sqrt(ser * (1 - ser) / n)
        assert abs(p_err - ser) <= 3 * sigma

    def test_misdetect_costs_match_frequencies(self):
        h = random_h(2, 2, seed=78)
        snr = SnrPoint.from_db(8.0)
        ch = build_quantized_mimo(h, snr)
        mask = SubsetMask.from_indices(16, [0, 3, 8, 12])
        sel = mask.indices
        table = enumerate_qpsk_inputs(2)
        costs = rates._column_state(ch, mask.indices)[3]
        n = 60_000
        rng = np.random.default_rng(999)
        for r in range(4):
            y = sample_receive_many(h, np.tile(table[sel[r]], (n, 1)), snr, rng)
            decoded = ch.trans[sel][:, y].argmax(axis=0)
            freq = float((decoded != r).mean())
            sigma = math.sqrt(max(costs[r] * (1 - costs[r]), 1e-9) / n)
            assert abs(freq - costs[r]) <= 4 * sigma


class TestRunCodedBer:
    def test_error_free_at_extreme_snr_with_selected_mask(self):
        h = random_h(2, 2, seed=80)
        ch = build_quantized_mimo(h, SnrPoint.from_db(60.0))
        mask, ser = exhaustive_select(ch, 4, "ser")
        assert ser == pytest.approx(0.0, abs=1e-12)
        records = run_coded_ber(
            h, mask, [60.0], n=24, total_rate=1.0, seeds=(0,),
            min_frame_errors=5, max_frames=40,
        )
        assert len(records) == 1
        assert records[0].ber == 0.0
        assert records[0].frame_errors == 0
        assert records[0].frames == 40

    def test_determinism(self):
        h = random_h(2, 2, seed=81)
        mask = SubsetMask.from_indices(16, [0, 5, 10, 15])
        kwargs = dict(n=24, total_rate=1.0, seeds=(3,), min_frame_errors=5, max_frames=30)
        a = run_coded_ber(h, mask, [2.0, 8.0], **kwargs)
        b = run_coded_ber(h, mask, [2.0, 8.0], **kwargs)
        assert a == b

    def test_ber_not_increasing_with_snr(self):
        # Common random numbers across SNR points keep the curve monotone
        # up to decoder noise; allow a loose margin.
        h = random_h(2, 2, seed=82)
        mask = SubsetMask.from_indices(16, [0, 5, 10, 15])
        records = run_coded_ber(
            h, mask, [0.0, 20.0], n=24, total_rate=1.0, seeds=(1,),
            min_frame_errors=200, max_frames=120,
        )
        assert records[1].ber <= records[0].ber + 0.02

    def test_rate_bounds_validated(self):
        h = random_h(2, 2, seed=83)
        mask = SubsetMask.from_indices(16, [0, 5])
        with pytest.raises(ValueError):
            run_coded_ber(h, mask, [10.0], n=24, total_rate=1.5)

    @pytest.mark.parametrize(
        "override",
        [{"seeds": ()}, {"min_frame_errors": 0}, {"max_frames": 0}],
        ids=["no-seeds", "no-frame-errors", "no-frames"],
    )
    def test_non_measurements_rejected(self, override):
        # Each of these would report a BER of 0 (or nothing) from 0 frames.
        h = random_h(2, 2, seed=83)
        mask = SubsetMask.from_indices(16, [0, 5, 10, 15])
        kwargs = dict(n=24, total_rate=1.0, seeds=(0,), min_frame_errors=3, max_frames=20)
        kwargs.update(override)
        with pytest.raises(ValueError):
            run_coded_ber(h, mask, [10.0], **kwargs)

    def test_negative_seed_rejected_before_any_point(self, monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("an SNR point was built")

        monkeypatch.setattr(link, "build_quantized_mimo", no_point)
        h = random_h(2, 2, seed=83)
        mask = SubsetMask.from_indices(16, [0, 5, 10, 15])
        with pytest.raises(ValueError, match="non-negative"):
            run_coded_ber(h, mask, [0.0, 10.0], n=24, total_rate=1.0, seeds=(0, -1))

    def test_repeated_snr_points_rejected(self):
        # A repeated point reuses the same (seed, frame) streams, so its
        # frames would be counted twice when the records are merged.
        h = random_h(2, 2, seed=83)
        mask = SubsetMask.from_indices(16, [0, 5, 10, 15])
        with pytest.raises(ValueError, match="distinct"):
            run_coded_ber(h, mask, [5.0, 0.0, 5.0], n=24, total_rate=1.0)

    def test_records_counts_consistent(self):
        h = random_h(2, 2, seed=84)
        mask = SubsetMask.from_indices(16, [2, 6, 9, 13])
        (rec,) = run_coded_ber(
            h, mask, [5.0], n=24, total_rate=1.0, seeds=(7,),
            min_frame_errors=3, max_frames=50,
        )
        assert rec.bits_sent == rec.frames * 12
        assert rec.ber == rec.bit_errors / rec.bits_sent
        assert rec.frame_errors >= 3 or rec.frames == 50

    def test_one_llr_table_per_point(self, monkeypatch):
        # The table depends on the point alone, so seeds share it.
        calls = []

        def counted(ch, lab, y):
            calls.append(len(y))
            return compute_llrs_block(ch, lab, y)

        monkeypatch.setattr(link, "compute_llrs_block", counted)
        mask = SubsetMask.from_indices(16, [2, 6, 9, 13])
        records = run_coded_ber(
            random_h(2, 2, seed=86), mask, [0.0, 10.0], n=24, total_rate=1.0,
            seeds=(1, 2, 3), max_frames=2,
        )
        assert calls == [16, 16]
        assert [(r.seed, r.snr_db) for r in records] == [
            (seed, snr) for seed in (1, 2, 3) for snr in (0.0, 10.0)
        ]

    @staticmethod
    def _frame_by_frame(h, mask, snr_db_list, n, total_rate, seeds, min_frame_errors, max_frames):
        """Reference: one frame at a time, LLRs computed per frame."""
        lab = SymbolLabeling.from_mask(mask)
        table = enumerate_qpsk_inputs(h.n_tx)
        records = []
        for seed in seeds:
            code = build_ldpc(n, total_rate / lab.bits_per_symbol, seed=seed)
            for snr_db in snr_db_list:
                snr = SnrPoint.from_db(snr_db)
                ch = build_quantized_mimo(h, snr)
                bit_errors = frame_errors = frames = 0
                while frames < max_frames and frame_errors < min_frame_errors:
                    rng = np.random.default_rng([seed, frames])
                    message = rng.integers(0, 2, size=code.message_length, dtype=np.uint8)
                    symbols, _ = map_bits(code.encode(message), lab)
                    y = sample_receive_many(h, table[symbols], snr, rng)
                    llrs = compute_llrs_block(ch, lab, y).ravel()[: code.n]
                    decoded = bp_decode(code, llrs)
                    errs = int((decoded.bits[code.message_positions] != message).sum())
                    bit_errors += errs
                    frame_errors += int(errs > 0)
                    frames += 1
                bits_sent = frames * code.message_length
                records.append(
                    BerRecord(
                        snr_db=snr_db, bits_sent=bits_sent, bit_errors=bit_errors,
                        frame_errors=frame_errors, frames=frames,
                        code_rate=code.rate, seed=seed,
                    )
                )
        return records

    @pytest.mark.parametrize(
        "snr_db_list, seeds, min_frame_errors, max_frames, stop",
        [
            ([2.0], (5,), 70, 400, "errors"),
            ([2.0], (5,), 1000, 150, "frames"),
            ([0.0, 10.0], (3, 4), 20, 90, None),
        ],
        ids=["min-frame-errors", "max-frames", "multi-seed"],
    )
    def test_matches_frame_by_frame_reference(
        self, snr_db_list, seeds, min_frame_errors, max_frames, stop
    ):
        h = random_h(2, 2, seed=85)
        mask = SubsetMask.from_indices(16, [1, 6, 11, 12])
        args = (h, mask, snr_db_list, 24, 1.0, seeds, min_frame_errors, max_frames)
        want = self._frame_by_frame(*args)
        got = run_coded_ber(
            h, mask, snr_db_list, n=24, total_rate=1.0, seeds=seeds,
            min_frame_errors=min_frame_errors, max_frames=max_frames,
        )
        assert got == want
        if stop == "errors":
            # Stopped by errors after more than one full batch, mid-way
            # through what would have been the next one.
            assert want[0].frame_errors == min_frame_errors
            assert 64 < want[0].frames < max_frames and want[0].frames % 64
        elif stop == "frames":
            assert want[0].frames == max_frames and 0 < want[0].frame_errors < min_frame_errors


class TestAverageBerRecords:
    def test_ber_is_errors_over_bits_sent(self):
        rec = BerRecord(
            snr_db=0.0, bits_sent=40, bit_errors=3, frame_errors=1, frames=2, code_rate=0.5
        )
        assert rec.ber == 3 / 40
        assert dataclasses.replace(rec, bits_sent=0, bit_errors=0).ber == 0.0

    def test_merged_counts_are_per_seed_sums(self):
        h = random_h(2, 2, seed=86)
        mask = SubsetMask.from_indices(16, [1, 6, 11, 12])
        snrs = [5.0, 0.0]
        kwargs = dict(n=24, total_rate=1.0, min_frame_errors=4, max_frames=30)
        per_seed = run_coded_ber(h, mask, snrs, seeds=(2, 3), **kwargs)
        merged = average_ber_records(per_seed)
        assert [rec.snr_db for rec in merged] == snrs
        for rec in merged:
            group = [r for r in per_seed if r.snr_db == rec.snr_db]
            assert len(group) == 2
            assert rec.frames == sum(r.frames for r in group)
            assert rec.frame_errors == sum(r.frame_errors for r in group)
            assert rec.bits_sent == sum(r.bits_sent for r in group)
            assert rec.bit_errors == sum(r.bit_errors for r in group)
            assert rec.ber == rec.bit_errors / rec.bits_sent
            assert rec.code_rate == group[0].code_rate
            assert rec.seed is None
