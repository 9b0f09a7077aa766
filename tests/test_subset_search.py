"""Tests for binary-switching and exhaustive subset selection."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from dmc_shaper import (
    BsaConfig,
    ComplexChannelMatrix,
    DmcChannel,
    SnrPoint,
    SubsetMask,
    bsa_select,
    build_quantized_mimo,
    cutoff_rate,
    exhaustive_select,
    rates,
    ser_ml,
    subset_search,
    uniform_subset_rate,
)


def random_channel(m, l, seed):
    rng = np.random.default_rng(seed)
    return DmcChannel.from_probs(rng.dirichlet(np.ones(l), size=m))


def small_mimo_channel(seed, snr_db=10.0):
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * np.sqrt(0.5)
    return build_quantized_mimo(ComplexChannelMatrix(gains), SnrPoint.from_db(snr_db))


class TestExhaustiveSelect:
    def test_noiseless_rate_is_log2k(self):
        ch = DmcChannel.from_probs(np.eye(6))
        for k in (2, 3, 4):
            _, val = exhaustive_select(ch, k, "rate")
            assert val == pytest.approx(math.log2(k), abs=1e-12)

    def test_duplicate_row_avoided_for_ser(self):
        p = np.vstack([np.eye(4)[:3], np.eye(4)[0]])  # row 3 duplicates row 0
        ch = DmcChannel.from_probs(p)
        mask, val = exhaustive_select(ch, 3, "ser")
        assert val == pytest.approx(0.0)
        sel = set(mask.indices.tolist())
        assert not {0, 3} <= sel

    def test_cutoff_matches_direct_enumeration(self):
        # Independent oracle: evaluate the cutoff rate of every one of the
        # C(6,2)=15 subsets directly and take the best.
        ch = random_channel(6, 4, seed=21)
        best_val = -np.inf
        best = None
        for combo in itertools.combinations(range(6), 2):
            val = cutoff_rate(ch, SubsetMask.from_indices(6, combo))
            if val > best_val:
                best_val = val
                best = combo
        mask, val = exhaustive_select(ch, 2, "cutoff")
        assert val == pytest.approx(best_val, abs=1e-12)
        assert tuple(mask.indices.tolist()) == best

    def test_ser_matches_direct_enumeration(self):
        ch = random_channel(7, 5, seed=22)
        want = min(
            ser_ml(ch, SubsetMask.from_indices(7, c))
            for c in itertools.combinations(range(7), 3)
        )
        _, val = exhaustive_select(ch, 3, "ser")
        assert val == pytest.approx(want, abs=1e-14)

    def test_guard_rejects_huge_searches(self):
        ch = random_channel(40, 2, seed=0)
        with pytest.raises(ValueError, match="guard"):
            exhaustive_select(ch, 20, "ser")

    def test_unknown_criterion(self):
        ch = random_channel(4, 4, seed=0)
        with pytest.raises(ValueError):
            exhaustive_select(ch, 2, "entropy")

    def test_permutation_invariant_value(self):
        ch = random_channel(6, 5, seed=23)
        perm = np.array([5, 2, 0, 4, 1, 3])
        ch_perm = DmcChannel.from_probs(ch.trans[perm])
        for crit in ("rate", "ser", "cutoff"):
            _, v1 = exhaustive_select(ch, 3, crit)
            _, v2 = exhaustive_select(ch_perm, 3, crit)
            assert v1 == pytest.approx(v2, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize(
        "criterion, scalar",
        [("rate", uniform_subset_rate), ("cutoff", cutoff_rate), ("ser", ser_ml)],
    )
    def test_value_is_scalar_api_on_mask(self, criterion, scalar, k):
        # Same bits, not just close: a sweep row must never show another
        # method above the exhaustive optimum for the same subset.
        for seed in range(5):
            ch = small_mimo_channel(seed, snr_db=0.0)
            mask, val = exhaustive_select(ch, k, criterion)
            assert val == scalar(ch, mask), seed

    def test_lexicographic_tie_break(self):
        # Identity channel: every k-subset is equally good, so the first
        # subset in enumeration order must win.
        ch = DmcChannel.from_probs(np.eye(5))
        mask, _ = exhaustive_select(ch, 3, "cutoff")
        np.testing.assert_array_equal(mask.indices, [0, 1, 2])


def brute_force(ch, k, criterion):
    """Every k-subset scored by the matching batch_* call; the first best wins."""
    scorer = {"rate": rates.batch_rate, "ser": rates.batch_ser, "cutoff": rates.batch_cutoff_rate}
    combos = np.asarray(list(itertools.combinations(range(ch.num_inputs), k)), dtype=np.intp)
    vals = scorer[criterion](ch, combos)
    i = int(vals.argmin() if criterion == "ser" else vals.argmax())
    return combos[i].tolist(), vals[i]


def duplicated_rows_channel():
    """Inputs 0 and 3 are copies, as are 1 and 4, and 2 and 6, so several
    subsets reach each optimum with the same bits."""
    base = random_channel(5, 6, seed=61).trans
    return DmcChannel.from_probs(base[[3, 0, 1, 3, 0, 4, 1, 2]])


class TestExhaustiveBitIdentity:
    """Exhaustive search extends prefix column aggregates; every value must
    keep the bits of scoring each full subset, ties included."""

    @staticmethod
    def check(ch, k, criterion):
        mask, val = exhaustive_select(ch, k, criterion)
        want_sel, want_val = brute_force(ch, k, criterion)
        assert mask.indices.tolist() == want_sel
        assert val == want_val

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    @pytest.mark.parametrize("k", [2, 3, 15, 16])
    def test_seeded_mimo(self, criterion, k):
        for seed in range(3):
            for snr_db in (-5.0, 10.0):
                self.check(small_mimo_channel(seed + 60, snr_db), k, criterion)

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_duplicated_rows_tie_to_smallest_subset(self, criterion):
        ch = duplicated_rows_channel()
        for k in (2, 3, 4, 5):
            self.check(ch, k, criterion)
        mask, _ = exhaustive_select(ch, 2, criterion)
        assert mask.indices.tolist() == [0, 7]  # [3, 7] ties with it

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    @pytest.mark.parametrize("subsets_per_chunk", [1, 3, 7])
    def test_multi_chunk(self, monkeypatch, criterion, subsets_per_chunk):
        for ch in (small_mimo_channel(62, snr_db=5.0), duplicated_rows_channel()):
            monkeypatch.setattr(
                subset_search, "_CHUNK_ENTRIES", subsets_per_chunk * ch.num_outputs
            )
            for k in (2, 4):
                self.check(ch, k, criterion)


class TestBsaSelect:
    def test_noiseless_reaches_zero_ser(self):
        ch = DmcChannel.from_probs(np.eye(8))
        res = bsa_select(ch, BsaConfig(k=4, restarts=3, rng_seed=0))
        assert res.ser == pytest.approx(0.0)
        assert not res.truncated

    def test_orthogonal_support_rows_found(self):
        # Rows 0-3 have disjoint supports; rows 4-7 all overlap heavily.
        p = np.zeros((8, 8))
        for i in range(4):
            p[i, 2 * i] = 0.6
            p[i, 2 * i + 1] = 0.4
        p[4:, :] = 0.125
        ch = DmcChannel.from_probs(p)
        res = bsa_select(ch, BsaConfig(k=4, restarts=10, rng_seed=1))
        np.testing.assert_array_equal(res.mask.indices, [0, 1, 2, 3])
        _, best = exhaustive_select(ch, 4, "ser")
        assert res.ser == pytest.approx(best)

    def test_monotone_improvement_each_restart(self):
        ch = small_mimo_channel(seed=31)
        res = bsa_select(ch, BsaConfig(k=4, restarts=8, rng_seed=2))
        for first, last in zip(res.initial_sers, res.final_sers):
            assert last <= first + 1e-15

    def test_matches_exhaustive_on_most_mimo_draws(self):
        hits = 0
        for seed in range(10):
            ch = small_mimo_channel(seed=seed + 200)
            res = bsa_select(ch, BsaConfig(k=4, restarts=20, rng_seed=seed))
            _, best = exhaustive_select(ch, 4, "ser")
            assert res.ser >= best - 1e-12
            hits += int(res.ser <= best + 1e-12)
        assert hits >= 8

    def test_result_ser_consistent_with_mask(self):
        ch = small_mimo_channel(seed=37)
        res = bsa_select(ch, BsaConfig(k=4, restarts=5, rng_seed=9))
        assert res.ser == ser_ml(ch, res.mask)

    def test_determinism(self):
        ch = small_mimo_channel(seed=41)
        cfg = BsaConfig(k=4, restarts=5, rng_seed=7)
        a = bsa_select(ch, cfg)
        b = bsa_select(ch, cfg)
        np.testing.assert_array_equal(a.mask.indices, b.mask.indices)
        assert a.ser == b.ser

    def test_truncation_flag(self, monkeypatch):
        monkeypatch.setattr(subset_search, "_MAX_PASSES", 1)
        ch = small_mimo_channel(seed=43)
        res = bsa_select(ch, BsaConfig(k=4, restarts=3, rng_seed=0))
        assert res.truncated

    def test_k_bounds(self):
        ch = random_channel(4, 4, seed=0)
        with pytest.raises(ValueError):
            bsa_select(ch, BsaConfig(k=4, restarts=1, rng_seed=0))
