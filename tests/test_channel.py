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
    restrict,
    save_channel,
    uniform_subset_rate,
)


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

    def test_duplicate_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsetMask.from_indices(16, [0, 0, 5, 10])

    @pytest.mark.parametrize(
        "indices", [[0.5, 5.9, 10, 15], [True, 5, 10, 15]], ids=["float", "bool"]
    )
    def test_non_integer_index(self, indices):
        with pytest.raises(ValueError, match="integers"):
            SubsetMask.from_indices(16, indices)


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

    def test_dict_round_trip_exact(self):
        ch = random_channel(4, 3, seed=4)
        doc = json.loads(json.dumps(channel_to_dict(ch)))
        back = channel_from_dict(doc)
        np.testing.assert_array_equal(back.trans, ch.trans)
