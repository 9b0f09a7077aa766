"""Tests for the information-rate functionals.

Expected values come from independent oracles: closed-form binary entropy
and cutoff-rate expressions for the BSC, hand evaluation on 2x2 matrices,
and cross-checks between independent implementations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmc_shaper import rates
from dmc_shaper import (
    DmcChannel,
    InputDistribution,
    SnrPoint,
    SubsetMask,
    blahut_arimoto,
    build_quantized_mimo,
    cutoff_rate,
    example_h4x4,
    mutual_information,
    ser_ml,
    uniform_subset_rate,
)


def bsc(p):
    return DmcChannel.from_probs(np.array([[1 - p, p], [p, 1 - p]]))


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_channel(m, l, seed):
    rng = np.random.default_rng(seed)
    return DmcChannel.from_probs(rng.dirichlet(np.ones(l), size=m))


def random_mask(m, k, seed):
    rng = np.random.default_rng(seed)
    return SubsetMask.from_indices(m, rng.choice(m, size=k, replace=False))


def misdetect(ch, idx):
    """Per-input misdetection costs of one subset."""
    return rates._column_state(ch, idx)[3]


class TestMutualInformation:
    def test_noiseless_identity(self):
        ch = DmcChannel.from_probs(np.eye(4))
        assert mutual_information(ch, InputDistribution.uniform(4)) == pytest.approx(2.0)

    def test_identical_rows_zero(self):
        ch = DmcChannel.from_probs(np.tile([0.3, 0.7], (3, 1)))
        p = InputDistribution(np.array([0.2, 0.5, 0.3]))
        assert mutual_information(ch, p) == pytest.approx(0.0, abs=1e-15)

    def test_bsc_uniform_closed_form(self):
        got = mutual_information(bsc(0.1), InputDistribution.uniform(2))
        assert got == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(bsc(0.1), InputDistribution.uniform(3))

    def test_range(self):
        for seed in range(5):
            ch = random_channel(6, 4, seed)
            val = mutual_information(ch, InputDistribution.uniform(6))
            assert -1e-12 <= val <= math.log2(6) + 1e-12


class TestUniformSubsetRate:
    def test_noiseless_subset(self):
        ch = DmcChannel.from_probs(np.eye(8))
        mask = SubsetMask.from_indices(8, [0, 3, 5, 6])
        assert uniform_subset_rate(ch, mask) == pytest.approx(2.0)

    def test_identical_rows_zero(self):
        p = np.vstack([np.eye(3), np.eye(3)[0]])
        ch = DmcChannel.from_probs(p)
        mask = SubsetMask.from_indices(4, [0, 3])
        assert uniform_subset_rate(ch, mask) == pytest.approx(0.0, abs=1e-15)

    def test_matches_mutual_information(self):
        for seed in range(10):
            ch = random_channel(8, 8, seed)
            mask = random_mask(8, 3, seed + 100)
            want = mutual_information(ch, InputDistribution.uniform_on(mask))
            assert uniform_subset_rate(ch, mask) == pytest.approx(want, abs=1e-12)

    def test_upper_bounded_by_log2k(self):
        ch = random_channel(6, 5, seed=10)
        mask = random_mask(6, 4, seed=11)
        assert uniform_subset_rate(ch, mask) <= 2.0 + 1e-12


@pytest.mark.parametrize("scalar", [uniform_subset_rate, ser_ml, cutoff_rate])
def test_scalar_rate_rejects_mask_of_wrong_length(scalar):
    ch = random_channel(6, 4, seed=12)
    with pytest.raises(ValueError, match="mask length"):
        scalar(ch, SubsetMask.from_indices(5, [0, 2]))


class TestSerMl:
    def test_noiseless(self):
        ch = DmcChannel.from_probs(np.eye(5))
        assert ser_ml(ch, SubsetMask.from_indices(5, [1, 2, 4])) == pytest.approx(0.0)

    def test_identical_rows_half(self):
        ch = DmcChannel.from_probs(np.tile([0.25, 0.75], (2, 1)))
        assert ser_ml(ch, SubsetMask.full(2)) == pytest.approx(0.5)

    def test_bsc_hand_value(self):
        # sum_y max = 0.9 + 0.9 = 1.8; 1 - 1.8/2 = 0.1
        assert ser_ml(bsc(0.1), SubsetMask.full(2)) == pytest.approx(0.1, abs=1e-15)

    def test_range(self):
        for seed in range(5):
            ch = random_channel(7, 4, seed)
            mask = random_mask(7, 3, seed + 50)
            val = ser_ml(ch, mask)
            assert -1e-12 <= val <= 1 - 1 / 3 + 1e-12


class TestPerSymbolMisdetect:
    def test_noiseless_all_zero(self):
        ch = DmcChannel.from_probs(np.eye(4))
        np.testing.assert_allclose(
            misdetect(ch, SubsetMask.full(4).indices), 0.0, atol=0
        )

    def test_tie_break_toward_smallest_index(self):
        ch = DmcChannel.from_probs(np.tile([0.5, 0.5], (2, 1)))
        np.testing.assert_allclose(
            misdetect(ch, SubsetMask.full(2).indices), [0.0, 1.0]
        )

    def test_bsc_value(self):
        np.testing.assert_allclose(
            misdetect(bsc(0.1), SubsetMask.full(2).indices), [0.1, 0.1]
        )

    def test_mean_equals_ser_without_ties(self):
        for seed in range(10):
            ch = random_channel(9, 6, seed)
            mask = random_mask(9, 4, seed + 7)
            costs = misdetect(ch, mask.indices)
            assert costs.mean() == pytest.approx(ser_ml(ch, mask), abs=1e-12)

    def test_costs_sum_owned_mass_in_output_order(self):
        # Bit for bit the np.add.at sum over outputs in order: a pairwise sum
        # moves the last bits, which reorders near-tied costs in bsa_select.
        for seed in range(10):
            ch = random_channel(9, 40, seed)
            sel = random_mask(9, 5, seed + 3).indices
            sub = ch.trans[sel]
            won = np.zeros(5)
            np.add.at(won, sub.argmax(axis=0), sub.max(axis=0))
            np.testing.assert_array_equal(misdetect(ch, sel), sub.sum(axis=1) - won)

    def test_column_state_ties(self):
        p = np.array([[0.5, 0.3, 0.2], [0.5, 0.1, 0.4], [0.2, 0.3, 0.5]])
        owner, best, second, _ = rates._column_state(DmcChannel.from_probs(p), np.arange(3))
        np.testing.assert_array_equal(owner, [0, 0, 2])
        np.testing.assert_array_equal(best, [0.5, 0.3, 0.5])
        np.testing.assert_array_equal(second, [0.5, 0.3, 0.4])


class TestCutoffRate:
    def test_noiseless(self):
        ch = DmcChannel.from_probs(np.eye(8))
        mask = SubsetMask.from_indices(8, [0, 1, 4, 7])
        assert cutoff_rate(ch, mask) == pytest.approx(2.0)

    def test_bsc_closed_form(self):
        want = 1.0 - math.log2(1.0 + 2.0 * math.sqrt(0.09))
        assert cutoff_rate(bsc(0.1), SubsetMask.full(2)) == pytest.approx(want, abs=1e-12)

    def test_identical_rows_zero(self):
        ch = DmcChannel.from_probs(np.tile([0.2, 0.8], (2, 1)))
        assert cutoff_rate(ch, SubsetMask.full(2)) == pytest.approx(0.0, abs=1e-12)


class TestOrderingInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cutoff_below_rate_below_log2k(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        l = int(rng.integers(2, 9))
        k = int(rng.integers(2, m + 1))
        ch = DmcChannel.from_probs(rng.dirichlet(np.ones(l), size=m))
        mask = SubsetMask.from_indices(m, rng.choice(m, size=k, replace=False))
        r0 = cutoff_rate(ch, mask)
        rate = uniform_subset_rate(ch, mask)
        assert -1e-10 <= r0 <= rate + 1e-10
        assert rate <= math.log2(k) + 1e-10

    def test_permutation_invariance(self):
        ch = random_channel(7, 5, seed=42)
        perm = np.array([3, 0, 6, 2, 5, 1, 4])
        ch_perm = DmcChannel.from_probs(ch.trans[perm])
        mask = random_mask(7, 3, seed=43)
        # The same physical subset under the permuted indexing.
        perm_positions = np.flatnonzero(np.isin(perm, mask.indices))
        mask_perm = SubsetMask.from_indices(7, perm_positions)
        assert ser_ml(ch, mask) == pytest.approx(ser_ml(ch_perm, mask_perm), abs=1e-14)
        assert cutoff_rate(ch, mask) == pytest.approx(
            cutoff_rate(ch_perm, mask_perm), abs=1e-12
        )
        assert uniform_subset_rate(ch, mask) == pytest.approx(
            uniform_subset_rate(ch_perm, mask_perm), abs=1e-12
        )
        # Misdetection costs permute with the rows.
        got = misdetect(ch_perm, mask_perm.indices)
        want = misdetect(ch, mask.indices)
        order_old = mask.indices
        order_new = perm[perm_positions]
        lookup = {int(x): w for x, w in zip(order_old, want)}
        np.testing.assert_allclose(got, [lookup[int(x)] for x in order_new], atol=1e-14)

    def test_determinism(self):
        ch = random_channel(6, 6, seed=5)
        mask = random_mask(6, 3, seed=6)
        assert uniform_subset_rate(ch, mask) == uniform_subset_rate(ch, mask)
        assert cutoff_rate(ch, mask) == cutoff_rate(ch, mask)
        assert ser_ml(ch, mask) == ser_ml(ch, mask)


def reference_values(trans, sel):
    """Per-entry definitions of rate, cutoff rate, SER and misdetection costs
    for one subset, written apart from the library's kernels."""
    k = len(sel)
    l = trans.shape[1]
    rate = math.log2(k)
    cutoff_sum = 0.0
    best_sum = 0.0
    costs = [0.0] * k
    for y in range(l):
        col = [float(trans[x, y]) for x in sel]
        denom = sum(col)
        rate += sum(p * math.log2(p / denom) for p in col if p > 0.0) / k
        cutoff_sum += sum(math.sqrt(p) for p in col) ** 2
        best = max(col)
        best_sum += best
        winner = col.index(best)  # first maximum: ties go to the smallest index
        for j in range(k):
            if j != winner:
                costs[j] += col[j]
    return rate, 2.0 * math.log2(k) - math.log2(cutoff_sum), 1.0 - best_sum / k, costs


class TestBatchKernels:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_match_per_entry_definitions(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        l = int(rng.integers(2, 9))
        k = int(rng.integers(2, m + 1))
        n = int(rng.integers(1, 6))
        probs = rng.dirichlet(np.ones(l), size=m) * (rng.random((m, l)) < 0.7)
        probs[:, 0] += 1e-3  # every row keeps some mass
        probs[-1] = probs[0]  # a duplicate row: tied argmax on every output
        ch = DmcChannel.from_probs(probs / probs.sum(axis=1, keepdims=True))
        # Row 0 holds both copies of the duplicated input.
        inner = np.sort(rng.choice(np.arange(1, m - 1), size=k - 2, replace=False))
        rows = [np.concatenate(([0], inner, [m - 1]))]
        rows += [np.sort(rng.choice(m, size=k, replace=False)) for _ in range(n - 1)]
        idx = np.array(rows)

        got = (
            rates.batch_rate(ch, idx),
            rates.batch_cutoff_rate(ch, idx),
            rates.batch_ser(ch, idx),
            np.array([misdetect(ch, sel) for sel in idx]),
        )
        assert [g.shape for g in got] == [(n,), (n,), (n,), (n, k)]
        for row, sel in enumerate(idx):
            want = reference_values(ch.trans, sel)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g[row], w, rtol=0, atol=1e-12)


class TestBlahutArimoto:
    def test_bsc_capacity(self):
        res = blahut_arimoto(bsc(0.1), tol=1e-8)
        assert res.converged
        assert res.capacity_bits == pytest.approx(1 - binary_entropy(0.1), abs=1e-7)
        np.testing.assert_allclose(res.input_dist.probs, 0.5, atol=1e-4)

    def test_bec_capacity(self):
        eps = 0.3
        p = np.array([[1 - eps, eps, 0.0], [0.0, eps, 1 - eps]])
        res = blahut_arimoto(DmcChannel.from_probs(p), tol=1e-8)
        assert res.capacity_bits == pytest.approx(1 - eps, abs=1e-7)

    def test_noiseless_16(self):
        res = blahut_arimoto(DmcChannel.from_probs(np.eye(16)), tol=1e-9)
        assert res.capacity_bits == pytest.approx(4.0, abs=1e-9)
        np.testing.assert_allclose(res.input_dist.probs, 1 / 16, atol=1e-9)

    def test_z_channel_nonuniform_optimum(self):
        # Closed form: C = log2(1 + (1-p) * p^(p/(1-p))) with a skewed input.
        p = 0.5
        ch = DmcChannel.from_probs(np.array([[1.0, 0.0], [p, 1 - p]]))
        res = blahut_arimoto(ch, tol=1e-9)
        want = math.log2(1 + (1 - p) * p ** (p / (1 - p)))
        assert res.capacity_bits == pytest.approx(want, abs=1e-8)
        assert res.input_dist.probs[0] > 0.5

    def test_capacity_dominates_uniform_rate(self):
        for seed in range(5):
            ch = random_channel(6, 6, seed)
            res = blahut_arimoto(ch, tol=1e-9)
            full_rate = uniform_subset_rate(ch, SubsetMask.full(6))
            assert full_rate <= res.capacity_bits + 1e-8
            assert res.capacity_bits <= math.log2(6) + 1e-9

    def test_returned_p_achieves_capacity(self):
        ch = random_channel(5, 7, seed=9)
        res = blahut_arimoto(ch, tol=1e-9)
        assert mutual_information(ch, res.input_dist) == pytest.approx(
            res.capacity_bits, abs=1e-9
        )

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_capacity_is_mutual_information_of_returned_p(self, snr_db):
        # Both evaluate I(X;Y) with the same divergence kernel, so they agree
        # bit for bit, not just to within the tolerance.
        ch = build_quantized_mimo(example_h4x4(), SnrPoint.from_db(snr_db))
        res = blahut_arimoto(ch, tol=1e-6)
        assert mutual_information(ch, res.input_dist) == res.capacity_bits

    def test_symmetric_channel_gets_uniform(self):
        # Rows are cyclic shifts: a symmetric channel, capacity at uniform.
        row = np.array([0.7, 0.2, 0.1])
        p = np.vstack([np.roll(row, i) for i in range(3)])
        res = blahut_arimoto(DmcChannel.from_probs(p), tol=1e-10)
        np.testing.assert_allclose(res.input_dist.probs, 1 / 3, atol=1e-5)

    def test_nonconvergence_reports_bounds(self):
        ch = random_channel(8, 8, seed=11)
        res = blahut_arimoto(ch, tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.lower_bits <= res.upper_bits
        # The bounds still bracket a proper run's capacity.
        ref = blahut_arimoto(ch, tol=1e-10)
        assert res.lower_bits - 1e-12 <= ref.capacity_bits <= res.upper_bits + 1e-12

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            blahut_arimoto(bsc(0.1), tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            blahut_arimoto(bsc(0.1), tol=math.nan)
        with pytest.raises(ValueError, match="max_iter"):
            blahut_arimoto(bsc(0.1), max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, True], ids=["float", "bool"])
    def test_non_integer_max_iter(self, max_iter):
        # True would run a single iteration.
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            blahut_arimoto(bsc(0.1), max_iter=max_iter)
