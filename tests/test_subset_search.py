"""Tests for binary-switching and exhaustive subset selection."""

from __future__ import annotations

import itertools
import math
import tracemalloc

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
    example_h4x4,
    exhaustive_select,
    rates,
    ser_ml,
    subset_search,
    uniform_subset_rate,
)


# Subset sizes that are not integers: numpy would read True as 1.
NON_INTEGER_K = pytest.mark.parametrize(
    "k", [4.0, True, np.float64(4)], ids=["float", "bool", "numpy-float"]
)


def random_channel(m, l, seed):
    rng = np.random.default_rng(seed)
    return DmcChannel.from_probs(rng.dirichlet(np.ones(l), size=m))


def small_mimo_channel(seed, snr_db=10.0, n=2):
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * np.sqrt(0.5)
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

    @pytest.mark.parametrize("k", [1, 7])
    def test_k_outside_range_rejected(self, k):
        ch = random_channel(6, 4, seed=0)
        with pytest.raises(ValueError, match=r"k must be in \[2, 6\]"):
            exhaustive_select(ch, k, "rate")

    @NON_INTEGER_K
    def test_non_integer_k_rejected(self, k):
        ch = random_channel(6, 4, seed=0)
        with pytest.raises(ValueError, match="k must be an integer"):
            exhaustive_select(ch, k, "rate")

    def test_numpy_integer_k_accepted(self):
        ch = random_channel(6, 4, seed=0)
        mask, value = exhaustive_select(ch, np.int64(3), "rate")
        assert (mask, value) == exhaustive_select(ch, 3, "rate")

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


SCORERS = {"rate": rates.batch_rate, "ser": rates.batch_ser, "cutoff": rates.batch_cutoff_rate}


def brute_force(ch, k, criterion):
    """Every k-subset scored by the matching batch_* call; the first best wins."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(ch.num_inputs), k))
    combos = np.fromiter(flat, np.intp).reshape(-1, k)
    # Each row is scored on its own, so chunks only bound the memory.
    vals = np.concatenate([SCORERS[criterion](ch, combos[s : s + 4096]) for s in range(0, len(combos), 4096)])
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


    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_weak_incumbent(self, monkeypatch, criterion):
        # One node per depth makes the incumbent and no descent polishes it,
        # and chunks hold 3 subsets, so every depth keeps more nodes and the
        # scan crosses many chunk boundaries.
        monkeypatch.setattr(subset_search, "_INCUMBENT_PREFIXES", 1)
        monkeypatch.setattr(
            subset_search,
            "_swap_descent",
            lambda parts, sel: (sel, float(rates._score(parts, np.asarray(sel, np.intp)))),
        )
        self.check(small_mimo_channel(64, snr_db=10.0, n=3), 4, criterion)
        for ch in (small_mimo_channel(63, snr_db=0.0), duplicated_rows_channel()):
            monkeypatch.setattr(subset_search, "_CHUNK_ENTRIES", 3 * ch.num_outputs)
            for k in (2, 3, 5):
                self.check(ch, k, criterion)

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_noiseless_heavy_ties(self, criterion):
        # Inputs x and x + 4 share output x % 4: every subset with one input
        # per output reaches log2 K exactly, so no prefix bound prunes them.
        ch = DmcChannel.from_probs(np.eye(4)[np.arange(12) % 4])
        for k in (2, 3, 4, 5):
            self.check(ch, k, criterion)
        mask, val = exhaustive_select(ch, 4, criterion)
        assert mask.indices.tolist() == [0, 1, 2, 3]
        assert val == {"rate": 2.0, "cutoff": 2.0, "ser": 0.0}[criterion]

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_seeded_mimo_3x3(self, criterion):
        # M = 64, K = 3: C(64, 3) = 41,664 subsets.
        self.check(small_mimo_channel(64, snr_db=10.0, n=3), 3, criterion)

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_seeded_mimo_3x3_k4(self, criterion):
        # M = 64, K = 4: C(64, 4) = 635,376 subsets, pruned at depths 2 and 3.
        self.check(small_mimo_channel(65, snr_db=10.0, n=3), 4, criterion)

    @pytest.mark.parametrize(
        "n, k, criterion",
        [(3, 5, "ser"), (4, 3, "cutoff")] + [(None, 3, c) for c in subset_search.CRITERIA],
        ids=["m64-k5-ser", "m256-k3-cutoff"] + [f"ties-m256-k3-{c}" for c in subset_search.CRITERIA],
    )
    def test_traced_peak(self, n, k, criterion):
        # Chunked extension keeps each working array near _CHUNK_ENTRIES
        # entries. With n None all 256 rows are equal, so no node is pruned
        # and all C(256, 3) subsets tie; each chunk keeps one leaf.
        if n is None:
            ch = DmcChannel.from_probs(np.full((256, 4), 0.25))
        else:
            ch = small_mimo_channel(66, snr_db=10.0, n=n)
        tracemalloc.start()
        try:
            mask, val = exhaustive_select(ch, k, criterion)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak
        assert val == SCORERS[criterion](ch, mask.indices)
        if n is None:
            assert mask.indices.tolist() == [0, 1, 2]


def sparse_channel():
    """Eight inputs over six outputs with exact zeros; input 5 is noiseless."""
    p = random_channel(8, 6, seed=65).trans.copy()
    p[p < 0.12] = 0.0
    p[5] = np.eye(6)[2]
    return DmcChannel.from_probs(p / p.sum(axis=1, keepdims=True))


def all_nodes(ch, k, criterion, n_sub):
    """The nodes and bounds of every depth 1..k-1, unpruned."""
    parts = rates._COLUMN_SCORERS[criterion](ch)
    nodes = np.empty((1, 0), np.min_scalar_type(ch.num_inputs - 1))
    levels = []
    for _ in range(1, k):
        nodes, bound = subset_search._nodes(parts, ch.num_inputs, k, nodes, -math.inf, n_sub)
        levels.append((nodes, bound))
    return levels


class TestPrefixBounds:
    """Each d-prefix bound, d = 1 .. K-1, holds for every completion of the
    prefix; at d = K the bound is the subset's value."""

    @staticmethod
    def check(ch, k, criterion):
        combos = np.asarray(list(itertools.combinations(range(ch.num_inputs), k)), dtype=np.intp)
        vals = SCORERS[criterion](ch, combos) * (-1.0 if criterion == "ser" else 1.0)
        for d, (nodes, bound) in enumerate(all_nodes(ch, k, criterion, n_sub=5), start=1):
            position = {tuple(p): i for i, p in enumerate(nodes.tolist())}
            limit = bound[[position[tuple(c)] for c in combos[:, :d].tolist()]]
            worst = int((vals - limit).argmax())
            assert vals[worst] <= limit[worst] + subset_search._BOUND_MARGIN, (d, combos[worst])

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_every_completion_under_its_bound(self, criterion):
        channels = [small_mimo_channel(seed, snr_db) for seed in (66, 67) for snr_db in (-5.0, 10.0)]
        channels += [duplicated_rows_channel(), sparse_channel()]
        for ch in channels:
            for k in (2, 3, ch.num_inputs - 1):
                self.check(ch, k, criterion)

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_bounds_are_tight_on_noiseless_rows(self, criterion):
        # Disjoint one-hot rows: every subset reaches log2 K (SER 0), and so
        # does every node's bound, at every depth.
        want = {"rate": 2.0, "cutoff": 2.0, "ser": -0.0}[criterion]
        for _, bound in all_nodes(DmcChannel.from_probs(np.eye(7)), 4, criterion, n_sub=5):
            np.testing.assert_allclose(bound, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_leaf_is_first_best_completion(self, criterion):
        # Depth k: one chunk per parent (n_sub = 1) keeps the parent's first
        # best completion, bounded by its value with the bits of rates.batch_*.
        # From k = 8 on, numpy sums the rate's k row terms pairwise, which a
        # prefix's sum plus one more term does not match at k = 8 or 16.
        sign = -1.0 if criterion == "ser" else 1.0
        cases = [(small_mimo_channel(60, snr_db=-5.0), k) for k in (2, 5, 8, 9, 15, 16)]
        cases += [(duplicated_rows_channel(), 3), (sparse_channel(), 4)]
        for ch, k in cases:
            m = ch.num_inputs
            combos = np.asarray(list(itertools.combinations(range(m), k)), dtype=np.intp)
            vals = sign * SCORERS[criterion](ch, combos)
            best = {}
            for combo, val in zip(map(tuple, combos.tolist()), vals):
                if combo[:-1] not in best or val > best[combo[:-1]][1]:
                    best[combo[:-1]] = (combo, val)
            prefixes = np.asarray(list(best), dtype=np.uint8)
            parts = rates._COLUMN_SCORERS[criterion](ch)
            leaves, bound = subset_search._nodes(parts, m, k, prefixes, -math.inf, 1)
            assert [tuple(leaf) for leaf in leaves.tolist()] == [c for c, _ in best.values()], k
            assert bound.tobytes() == np.array([v for _, v in best.values()]).tobytes(), k

    def test_nodes_are_compact_and_lexicographic(self):
        # Depth d holds every d-subset whose last index leaves room for the
        # k - d larger inputs still to come: the d-subsets of range(m - k + d),
        # whatever the chunk size.
        ch = small_mimo_channel(68, n=3)
        for n_sub in (1, 7, 4096):
            for d, (nodes, bound) in enumerate(all_nodes(ch, 4, "ser", n_sub), start=1):
                assert nodes.dtype == np.uint8
                assert nodes.tolist() == [list(p) for p in itertools.combinations(range(64 - 4 + d), d)]
                assert bound.shape == (nodes.shape[0],)


def reference_descent(ch, sel, criterion):
    """Best-improvement single swaps written out: positions, then outside
    inputs, in ascending order; a later swap wins only if strictly better."""
    sign = -1.0 if criterion == "ser" else 1.0
    sel = [int(x) for x in sel]
    cur = sign * SCORERS[criterion](ch, np.asarray(sel))
    while True:
        best = None
        for p in range(len(sel)):
            for x in range(ch.num_inputs):
                if x in sel:
                    continue
                cand = sorted(sel[:p] + [x] + sel[p + 1 :])
                val = sign * SCORERS[criterion](ch, np.asarray(cand))
                if best is None or val > best[0]:
                    best = (val, cand)
        if best is None or not best[0] > cur:
            return sel, sign * cur
        cur, sel = best


class TestSwapDescent:
    @pytest.mark.parametrize("criterion", subset_search.CRITERIA)
    def test_matches_explicit_loop(self, criterion):
        noiseless = DmcChannel.from_probs(np.eye(4)[np.arange(12) % 4])
        cases = [(small_mimo_channel(69), [0, 1, 2, 3]), (small_mimo_channel(70, 0.0), [3, 7, 11])]
        cases += [(duplicated_rows_channel(), [0, 3]), (duplicated_rows_channel(), [0, 1, 3, 4])]
        cases += [(noiseless, [0, 4, 8]), (random_channel(9, 5, seed=71), [2, 5, 6, 8])]
        cases += [(random_channel(5, 3, seed=72), [0, 1, 2, 3, 4])]  # k = m: nothing to swap
        for ch, start in cases:
            sel, val = subset_search._swap_descent(rates._COLUMN_SCORERS[criterion](ch), np.asarray(start))
            want_sel, want_val = reference_descent(ch, start, criterion)
            assert sel.tolist() == want_sel, (start, criterion)
            assert val == want_val
            assert val == SCORERS[criterion](ch, sel)
            # No single swap is strictly better than the result.
            _, again = reference_descent(ch, sel, criterion)
            assert again == val

    def test_ties_go_to_lowest_position_then_candidate(self):
        # Inputs x and x + 4 share output x % 4. From [0, 4] (both output 0),
        # every swap that brings in another output reaches 1 bit; position 0
        # with the smallest outside input, 1, comes first.
        ch = DmcChannel.from_probs(np.eye(4)[np.arange(12) % 4])
        sel, val = subset_search._swap_descent(rates._rate_parts(ch), np.array([0, 4]))
        assert sel.tolist() == [1, 4]
        assert val == 1.0


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
        with pytest.raises(ValueError, match="at least 3 inputs, got 2"):
            bsa_select(random_channel(2, 4, seed=0), BsaConfig(k=2, restarts=1, rng_seed=0))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"k": 1}, "k must be at least 2"),
            ({"k": 4, "rng_seed": -1}, "non-negative"),
            ({"k": 4.0}, "k must be an integer"),
            ({"k": 4, "restarts": 2.5}, "restarts must be an integer"),
            ({"k": 4, "restarts": True}, "restarts must be an integer"),
            ({"k": 4, "rng_seed": 1.5}, "rng_seed must be an integer"),
            ({"k": 4, "rng_seed": True}, "rng_seed must be an integer"),
        ],
        ids=[
            "k-1", "negative-seed", "float-k", "float-restarts", "bool-restarts",
            "float-seed", "bool-seed",
        ],
    )
    def test_config_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BsaConfig(**kwargs)

    @NON_INTEGER_K
    def test_non_integer_k_rejected(self, k):
        # BsaConfig refuses it, and so does the size check bsa_select makes.
        with pytest.raises(ValueError, match="k must be an integer"):
            bsa_select(small_mimo_channel(seed=43), BsaConfig(k=k, restarts=1))
        with pytest.raises(ValueError, match="k must be an integer"):
            subset_search.check_bsa_size(16, k)

    def test_numpy_integers_accepted(self):
        ch = small_mimo_channel(seed=43)
        got = bsa_select(
            ch, BsaConfig(k=np.int64(4), restarts=np.int64(3), rng_seed=np.int64(5))
        )
        assert got == bsa_select(ch, BsaConfig(k=4, restarts=3, rng_seed=5))

    def test_traced_peak_does_not_grow_with_restarts(self):
        # Restarts descend in groups of about _RESTART_GROUP_ENTRIES
        # entries; one lockstep of all 2,000 restarts at M = L = 64 would
        # score a 62 MiB stack.
        ch = small_mimo_channel(seed=80, n=3)
        peaks = []
        for restarts in (20, 2000):
            tracemalloc.start()
            try:
                bsa_select(ch, BsaConfig(k=4, restarts=restarts, rng_seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks
        assert peaks[1] < 4 * 2**20, peaks


class TestColumnStateStack:
    def test_stack_equals_rows(self):
        # The lockstep reads the column state of all its restarts in one
        # stacked call; each subset's four outputs must keep the bits of the
        # call on that subset alone, ties and exact zeros included.
        def draws(ch, k):
            rng = np.random.default_rng(k)
            return np.sort([rng.choice(ch.num_inputs, k, replace=False) for _ in range(6)], axis=1)

        # Inputs 0 and 3, 1 and 4, 2 and 6 of duplicated_rows_channel() are
        # copies, so those subsets tie in every column.
        dup = duplicated_rows_channel()
        cases = [(dup, np.array([[0, 3], [1, 4], [2, 6], [0, 7], [3, 5], [1, 2]]))]
        cases += [(dup, np.array([[0, 3, 5], [1, 4, 7], [0, 2, 6], [0, 1, 3], [3, 4, 6], [1, 2, 5]]))]
        noiseless = DmcChannel.from_probs(np.eye(4)[np.arange(12) % 4])
        channels = [(dup, 5), (noiseless, 3), (sparse_channel(), 4), (small_mimo_channel(90), 4)]
        channels += [(bundled_channel(0.0), 16), (bundled_channel(25.0), 64)]
        cases += [(ch, draws(ch, k)) for ch, k in channels]
        for ch, stack in cases:
            k = stack.shape[1]
            for idx in (stack, stack.reshape(2, 3, k)):
                state = rates._column_state(ch, idx)
                for i in np.ndindex(idx.shape[:-1]):
                    want = rates._column_state(ch, idx[i])
                    for got, row in zip(state, want):
                        assert got[i].tobytes() == row.tobytes(), (k, i)
                        assert got[i].dtype == row.dtype


def reference_bsa(ch, cfg):
    """Binary switching written out plainly: misdetection costs summed with
    np.add.at, every candidate swap scored by rates.batch_ser on the swapped,
    sorted index row. Returns the BsaResult fields in declaration order."""
    m, k = ch.num_inputs, cfg.k
    best_sel, best_ser, truncated = None, math.inf, False
    initial, final = [], []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.rng_seed, restart])
        sel = np.sort(rng.choice(m, size=k, replace=False))
        cur = float(rates.batch_ser(ch, sel))
        initial.append(cur)
        passes = 0
        while True:
            sub = ch.trans[sel]
            won = np.zeros(k)
            np.add.at(won, sub.argmax(axis=0), sub.max(axis=0))
            costs = sub.sum(axis=1) - won
            outside = [x for x in range(m) if x not in sel]
            for j in np.lexsort((np.arange(k), -costs)):
                rest = np.broadcast_to(np.delete(sel, j), (len(outside), k - 1))
                swapped = np.sort(np.column_stack((rest, outside)), axis=1)
                # Each row is scored on its own; chunks of 8 keep the gather in cache.
                sers = np.concatenate([rates.batch_ser(ch, swapped[s : s + 8]) for s in range(0, len(swapped), 8)])
                c = int(sers.argmin())
                if sers[c] < cur:
                    sel, cur = swapped[c], float(sers[c])
                    break
            else:
                break
            passes += 1
            if passes >= subset_search._MAX_PASSES:
                truncated = True
                break
        final.append(cur)
        if cur < best_ser:
            best_sel, best_ser = sel, cur
    return best_sel.tolist(), best_ser, truncated, tuple(initial), tuple(final)


def bundled_channel(snr_db):
    return build_quantized_mimo(example_h4x4(), SnrPoint.from_db(snr_db))


def bundled_duplicates_channel():
    """256 inputs that are the first 128 rows of the bundled H at 0 dB, each
    twice, in a shuffled order: every swap ties exactly with its copy's."""
    rows = bundled_channel(0.0).trans[:128]
    return DmcChannel.from_probs(rows[np.random.default_rng(5).permutation(np.arange(256) % 128)])


def regimes(ch, k):
    """Module constants that put bsa_select in each regime: restarts in
    lockstep, one plain descent at a time, and screened; the first two also
    in groups of one restart and in groups of three."""
    lockstep = {"_LOCKSTEP_MAX_BLOCK": math.inf, "_SCREEN_MIN_ENTRIES": math.inf}
    plain = {"_LOCKSTEP_MAX_BLOCK": 0, "_SCREEN_MIN_ENTRIES": math.inf}
    out = {"screened": {"_SCREEN_MIN_ENTRIES": 0}}
    # A group's budget is counted in (M, L) blocks in lockstep, else (K, L).
    for name, constants, rows in (("lockstep", lockstep, ch.num_inputs), ("plain", plain, k)):
        out[name] = constants
        out[f"{name}-groups-of-1"] = {**constants, "_RESTART_GROUP_ENTRIES": 1}
        out[f"{name}-groups-of-3"] = {**constants, "_RESTART_GROUP_ENTRIES": 3 * rows * ch.num_outputs}
    return out


REGIME_CONSTANTS = ("_LOCKSTEP_MAX_BLOCK", "_SCREEN_MIN_ENTRIES", "_RESTART_GROUP_ENTRIES")


class TestBsaMatchesReference:
    """bsa_select must return every field of the plain reference, bit for bit,
    in every regime."""

    @staticmethod
    def check(monkeypatch, cases):
        defaults = {name: getattr(subset_search, name) for name in REGIME_CONSTANTS}
        for ch, k, restarts, seed in cases:
            cfg = BsaConfig(k=k, restarts=restarts, rng_seed=seed)
            want = reference_bsa(ch, cfg)
            for regime, constants in regimes(ch, k).items():
                for name, value in {**defaults, **constants}.items():
                    monkeypatch.setattr(subset_search, name, value)
                res = bsa_select(ch, cfg)
                got = (
                    res.mask.indices.tolist(), res.ser, res.truncated, res.initial_sers, res.final_sers
                )
                assert got == want, (ch.num_inputs, k, seed, regime)

    @pytest.mark.parametrize("max_passes", [None, 1, 2])
    def test_fields_equal(self, monkeypatch, max_passes):
        if max_passes is not None:
            monkeypatch.setattr(subset_search, "_MAX_PASSES", max_passes)
        cases = [(small_mimo_channel(seed=s), k, 6, s) for s in (50, 51, 52) for k in (3, 4, 8)]
        cases += [(small_mimo_channel(seed=s, n=3), k, 6, s) for s in (53, 54) for k in (4, 12)]
        cases += [(duplicated_rows_channel(), k, 6, s) for s in (0, 1) for k in (2, 3, 4)]
        # Desk scale: 20 restarts, which end their descents at different passes.
        cases += [(small_mimo_channel(seed=s), 4, 20, s) for s in (55, 56, 57)]
        cases += [(small_mimo_channel(seed=58, n=3), 4, 20, 58)]
        self.check(monkeypatch, cases)

    @pytest.mark.parametrize("max_passes", [None, 1, 2])
    def test_bundled_h_fields_equal(self, monkeypatch, max_passes):
        # K (M - K) L is 983,040 at K = 16 and 3,145,728 at K = 64, so only
        # the patched regimes run these in lockstep or unscreened.
        if max_passes is not None:
            monkeypatch.setattr(subset_search, "_MAX_PASSES", max_passes)
        # One full K = 64 descent of the reference takes about 0.4 s.
        channels = [bundled_channel(0.0), bundled_channel(22.5), bundled_duplicates_channel()]
        cases = [(ch, k, restarts, 3) for ch in channels for k, restarts in ((16, 2), (64, 1))]
        self.check(monkeypatch, cases)


class TestSwapScreen:
    def test_bounds_within_margin_after_descent(self, monkeypatch):
        # The gains are refreshed pass by pass through a whole K = 64 descent;
        # at its end they and every bound must still sit far inside the
        # margin that the screen's skip and near-set rules allow for.
        screens = []

        class Recorded(subset_search._Screen):
            def __init__(self, rows):
                super().__init__(rows)
                screens.append(self)

        monkeypatch.setattr(subset_search, "_Screen", Recorded)
        ch = bundled_channel(0.0)
        res = bsa_select(ch, BsaConfig(k=64, restarts=1, rng_seed=0))
        assert len(screens) == 1 and not res.truncated
        sel = res.mask.indices
        owner, best, second, _ = rates._column_state(ch, sel)
        screen = screens[0]
        np.testing.assert_array_equal(screen.best, best)
        tol = subset_search._BOUND_MARGIN / 1000
        fresh = np.maximum(ch.trans - best, 0.0).sum(axis=1)
        assert np.abs(screen.gain - fresh).max() <= tol
        outside = np.delete(np.arange(ch.num_inputs), sel)
        for j in range(sel.size):
            owned = owner == j
            exact = np.maximum(np.where(owned, second, best), ch.trans[outside]).sum(axis=1)
            bound = screen.bounds(np.flatnonzero(owned), second)
            assert np.abs(bound[outside] - exact).max() <= tol, j
            assert np.isneginf(bound[sel]).all()
