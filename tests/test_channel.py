"""Tests for the channel data model and JSON interchange."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dmc_shaper import (
    DmcChannel,
    InputDistribution,
    SubsetMask,
    channel_from_dict,
    channel_to_dict,
    check_channel_dict,
    load_channel,
    mutual_information,
    save_channel,
    uniform_subset_rate,
)
from dmc_shaper.channel import check_seed, check_subset_size


def restrict(ch, mask):
    """Channel of the selected rows only (k x L, row stochasticity preserved)."""
    sel = mask.indices
    return DmcChannel(trans=ch.trans[sel].copy(), log_trans=ch.log_trans[sel].copy())


def random_channel(m, l, seed):
    rng = np.random.default_rng(seed)
    return DmcChannel.from_probs(rng.dirichlet(np.ones(l), size=m))


class TestDmcChannel:
    def test_valid_construction(self):
        ch = DmcChannel.from_probs(np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert ch.num_inputs == 2
        assert ch.num_outputs == 2

    def test_log_companion_matches(self):
        ch = random_channel(5, 7, seed=0)
        pos = ch.trans > 0
        np.testing.assert_allclose(np.exp(ch.log_trans[pos]), ch.trans[pos], rtol=1e-12)

    def test_zero_entries_get_neg_inf(self):
        ch = DmcChannel.from_probs(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert ch.log_trans[0, 1] == -np.inf
        assert ch.trans[0, 1] == 0.0

    def test_tiny_probabilities_become_exact_zeros(self):
        p = np.array([[1.0 - 1e-301, 1e-301], [0.5, 0.5]])
        ch = DmcChannel.from_probs(p)
        assert ch.trans[0, 1] == 0.0

    def test_row_sum_violation_rejected(self):
        p = np.array([[0.6, 0.3], [0.5, 0.5]])
        with pytest.raises(ValueError, match="row 0"):
            DmcChannel.from_probs(p)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            DmcChannel.from_probs(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DmcChannel.from_probs(np.array([[np.nan, 0.5], [0.5, 0.5]]))
        assert check_channel_dict(
            {"M": 2, "L": 2, "P": [[float("nan"), 0.5], [0.5, 0.5]]}
        ) == ["P contains non-finite entries"]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            DmcChannel.from_probs(np.array([[1.0], [1.0]]))

    def test_inconsistent_log_rejected(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="inconsistent"):
            DmcChannel(trans=p, log_trans=np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "trans, log_trans, match",
        [
            (np.full(4, 0.25), np.full(4, np.log(0.25)), "2-D"),
            (np.full((2, 2), 0.5), np.full((2, 3), np.log(0.5)), "same shape"),
            (np.full((2, 2), 0.5), [[np.nan, np.log(0.5)], [np.log(0.5)] * 2], "finite or -inf"),
            (np.full((2, 2), 0.5), [[np.inf, np.log(0.5)], [np.log(0.5)] * 2], "finite or -inf"),
        ],
        ids=["trans-1d", "shape-mismatch", "log-nan", "log-plus-inf"],
    )
    def test_malformed_arrays_rejected(self, trans, log_trans, match):
        with pytest.raises(ValueError, match=match):
            DmcChannel(trans=trans, log_trans=np.array(log_trans))

    def test_arrays_are_frozen(self):
        ch = random_channel(3, 3, seed=1)
        with pytest.raises(ValueError):
            ch.trans[0, 0] = 0.5


class TestInputDistribution:
    def test_uniform(self):
        p = InputDistribution.uniform(4)
        np.testing.assert_allclose(p.probs, 0.25)

    def test_uniform_on_mask(self):
        mask = SubsetMask.from_indices(5, [1, 3])
        p = InputDistribution.uniform_on(mask)
        np.testing.assert_array_equal(p.probs, [0.0, 0.5, 0.0, 0.5, 0.0])

    def test_sum_violation(self):
        with pytest.raises(ValueError):
            InputDistribution(np.array([0.5, 0.4]))

    def test_negative(self):
        with pytest.raises(ValueError):
            InputDistribution(np.array([1.2, -0.2]))

    def test_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            InputDistribution(np.full((2, 2), 0.25))


class TestSubsetMask:
    def test_from_indices(self):
        mask = SubsetMask.from_indices(6, [4, 0])
        assert mask.k == 2
        np.testing.assert_array_equal(mask.indices, [0, 4])

    def test_full(self):
        mask = SubsetMask.full(4)
        assert mask.k == 4

    def test_k_derived_from_bits(self):
        assert SubsetMask(np.array([True, False, True])).k == 2

    def test_equality_and_hash_follow_bits(self):
        a = SubsetMask.from_indices(4, [0, 2])
        b = SubsetMask.from_indices(4, [2, 0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != SubsetMask.from_indices(4, [0, 3])
        assert a != SubsetMask.from_indices(5, [0, 2])
        assert a != [0, 2]

    def test_k_below_two(self):
        with pytest.raises(ValueError):
            SubsetMask.from_indices(4, [2])

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            SubsetMask.from_indices(4, [0, 7])

    def test_bits_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            SubsetMask(np.ones((2, 2), dtype=bool))

    def test_duplicate_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsetMask.from_indices(16, [0, 0, 5, 10])

    @pytest.mark.parametrize(
        "indices", [[0.5, 5.9, 10, 15], [True, 5, 10, 15]], ids=["float", "bool"]
    )
    def test_non_integer_index(self, indices):
        with pytest.raises(ValueError, match="integers"):
            SubsetMask.from_indices(16, indices)


class TestSharedRules:
    @pytest.mark.parametrize(
        "k, match",
        [
            (1, r"k = 1 is out of range: k must be in \[2, 16\]"),
            (17, r"k = 17 is out of range: k must be in \[2, 16\]"),
            (4.0, "k must be an integer, got 4.0"),
            (True, "k must be an integer, got True"),
            (np.float64(4), "k must be an integer"),
        ],
        ids=["below", "above", "float", "bool", "numpy-float"],
    )
    def test_subset_size_rejected(self, k, match):
        with pytest.raises(ValueError, match=match):
            check_subset_size(16, k)

    @pytest.mark.parametrize(
        "seed, match",
        [
            (-1, "--seed must be non-negative, got -1"),
            (1.5, "--seed must be an integer, got 1.5"),
            (True, "--seed must be an integer, got True"),
        ],
        ids=["negative", "float", "bool"],
    )
    def test_seed_rejected(self, seed, match):
        with pytest.raises(ValueError, match=match):
            check_seed(seed, "--seed")

    def test_numpy_integers_accepted(self):
        check_subset_size(16, np.int64(2))
        check_subset_size(16, np.uint8(16))
        check_seed(np.int64(0), "seed")


class TestRestrict:
    def test_full_mask_is_identity(self):
        ch = random_channel(4, 5, seed=2)
        sub = restrict(ch, SubsetMask.full(4))
        np.testing.assert_array_equal(sub.trans, ch.trans)

    def test_identity_channel_rows(self):
        ch = DmcChannel.from_probs(np.eye(4))
        sub = restrict(ch, SubsetMask.from_indices(4, [0, 2]))
        np.testing.assert_array_equal(sub.trans, np.eye(4)[[0, 2]])

    def test_rate_consistency_with_restriction(self):
        # Subset rate of the big channel == mutual information of the
        # restricted channel under its uniform prior.
        for seed in range(5):
            ch = random_channel(8, 6, seed=seed)
            mask = SubsetMask.from_indices(8, [1, 3, 4])
            got = uniform_subset_rate(ch, mask)
            want = mutual_information(restrict(ch, mask), InputDistribution.uniform(3))
            assert got == pytest.approx(want, abs=1e-12)


class TestJsonInterchange:
    def test_round_trip(self, tmp_path):
        ch = random_channel(3, 4, seed=3)
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        back = load_channel(path)
        np.testing.assert_allclose(back.trans, ch.trans, rtol=0, atol=1e-15)

    def test_loader_renormalizes_small_deviation(self):
        p = [[0.5 + 2e-7, 0.5], [0.25, 0.75]]
        ch = channel_from_dict({"M": 2, "L": 2, "P": p})
        np.testing.assert_allclose(ch.trans.sum(axis=1), 1.0, atol=0)

    def test_loader_rejects_large_deviation(self):
        doc = {"M": 2, "L": 2, "P": [[0.5, 0.4], [0.5, 0.5]]}
        with pytest.raises(ValueError, match="row 0"):
            channel_from_dict(doc)

    def test_loader_rejects_negative(self):
        doc = {"M": 2, "L": 2, "P": [[1.1, -0.1], [0.5, 0.5]]}
        problems = check_channel_dict(doc)
        assert any("negative" in p for p in problems)

    def test_loader_rejects_bad_shape(self):
        doc = {"M": 3, "L": 2, "P": [[0.5, 0.5], [0.5, 0.5]]}
        assert check_channel_dict(doc)

    def test_loader_rejects_missing_keys(self):
        assert check_channel_dict({"M": 2}) == ["missing key 'L'", "missing key 'P'"]

    @pytest.mark.parametrize(
        "doc, problem",
        [
            ([[0.5, 0.5], [0.5, 0.5]], "document is not a JSON object"),
            ({"M": 2.0, "L": 2, "P": [[0.5, 0.5], [0.5, 0.5]]}, "M and L must be integers >= 2"),
            ({"M": 2, "L": "2", "P": [[0.5, 0.5], [0.5, 0.5]]}, "M and L must be integers >= 2"),
            ({"M": 1, "L": 2, "P": [[0.5, 0.5]]}, "M and L must be integers >= 2"),
            ({"M": 2, "L": 2, "P": [["a", "b"], ["c", "d"]]}, "P is not a numeric matrix"),
            ({"M": 2, "L": 2, "P": {"rows": 2}}, "P is not a numeric matrix"),
        ],
        ids=["not-object", "float-m", "string-l", "m-below-2", "string-p", "object-p"],
    )
    def test_loader_rejects_malformed_document(self, doc, problem):
        assert check_channel_dict(doc) == [problem]

    def test_dict_round_trip_exact(self):
        ch = random_channel(4, 3, seed=4)
        doc = json.loads(json.dumps(channel_to_dict(ch)))
        back = channel_from_dict(doc)
        np.testing.assert_array_equal(back.trans, ch.trans)
