"""Tests for the semidefinite relaxation pipeline.

Boolean optima used as references are independently enumerated over all
subsets; algebraic identities of the lift are checked on random points.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmc_shaper import (
    ComplexChannelMatrix,
    DmcChannel,
    RoundingConfig,
    SnrPoint,
    build_gram,
    build_quantized_mimo,
    cutoff_rate,
    embed,
    exhaustive_select,
    psd_factorize,
    round_solution,
    sdp_select,
    solve_sdp,
)
from dmc_shaper.mimo import qpsk_rotation
from dmc_shaper.sdp import SdpSolution, _input_orbits


def bsc(p):
    return DmcChannel.from_probs(np.array([[1 - p, p], [p, 1 - p]]))


def random_channel(m, l, seed):
    rng = np.random.default_rng(seed)
    return DmcChannel.from_probs(rng.dirichlet(np.ones(l), size=m))


def small_mimo_channel(seed, snr_db=10.0):
    rng = np.random.default_rng(seed)
    gains = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * np.sqrt(0.5)
    return build_quantized_mimo(ComplexChannelMatrix(gains), SnrPoint.from_db(snr_db))


def boolean_minimum(a, k):
    """Exhaustive minimum of b^T A b over k-subsets."""
    m = a.shape[0]
    best = math.inf
    for combo in itertools.combinations(range(m), k):
        idx = list(combo)
        best = min(best, float(a[np.ix_(idx, idx)].sum()))
    return best


class TestBuildGram:
    def test_unit_diagonal(self):
        for seed in range(3):
            g = build_gram(random_channel(5, 6, seed))
            np.testing.assert_array_equal(np.diag(g.a), 1.0)

    def test_disjoint_support_rows(self):
        ch = DmcChannel.from_probs(np.eye(3))
        g = build_gram(ch)
        assert g.a[0, 1] == 0.0

    def test_bsc_off_diagonal(self):
        g = build_gram(bsc(0.1))
        assert g.a[0, 1] == pytest.approx(0.6, abs=1e-15)

    def test_positive_semidefinite(self):
        for seed in range(5):
            g = build_gram(random_channel(7, 5, seed))
            w = np.linalg.eigvalsh(g.a)
            assert w.min() >= -1e-10


class TestEmbed:
    def test_identity_block(self):
        g = build_gram(DmcChannel.from_probs(np.eye(2)))
        b = embed(g)
        assert b.shape == (3, 3)
        np.testing.assert_array_equal(np.diag(b), [1.0, 1.0, 0.0])
        assert b[0, 2] == b[2, 0] == 0.0

    def test_trace_preserved(self):
        g = build_gram(random_channel(6, 4, seed=1))
        assert np.trace(embed(g)) == pytest.approx(6.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lift_identity_and_constraints(self, seed):
        """b^T A b == s^T B s for s = [b; 1], and the lift satisfies every
        affine constraint of the relaxed program."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        k = int(rng.integers(1, m + 1))
        g = build_gram(random_channel(m, int(rng.integers(2, 6)), seed))
        b_vec = np.zeros(m)
        b_vec[rng.choice(m, size=k, replace=False)] = 1.0
        s_vec = np.concatenate((b_vec, [1.0]))
        b_mat = embed(g)
        direct = float(b_vec @ g.a @ b_vec)
        lifted = float(s_vec @ b_mat @ s_vec)
        assert lifted == pytest.approx(direct, rel=1e-12)
        big_s = np.outer(s_vec, s_vec)
        assert big_s[m, m] == 1.0
        np.testing.assert_array_equal(np.diag(big_s)[:m], big_s[:m, m])
        assert big_s[m, :].sum() == pytest.approx(k + 1)


class TestSolveSdp:
    def test_full_set_forced(self):
        # k = M leaves the all-ones lift as the only feasible point.
        g = build_gram(random_channel(5, 4, seed=2))
        b_mat = embed(g)
        sol = solve_sdp(b_mat, k=5, tol=1e-9, max_iter=20_000)
        assert sol.converged
        want = float(g.a.sum())
        assert sol.objective == pytest.approx(want, abs=1e-5)
        mask, _ = round_solution(psd_factorize(sol), 5, b_mat, RoundingConfig(n_rand=5, rng_seed=0))
        assert mask.k == 5

    def test_orthogonal_rows_objective_forced_to_k(self):
        # With A = I the affine constraints force tr(B S) = k exactly.
        g = build_gram(DmcChannel.from_probs(np.eye(6)))
        sol = solve_sdp(embed(g), k=3, tol=1e-9, max_iter=20_000)
        assert sol.converged
        assert sol.objective == pytest.approx(3.0, abs=1e-6)

    def test_relaxation_lower_bounds_boolean_minimum(self):
        for seed in range(5):
            ch = small_mimo_channel(seed=seed + 300)
            g = build_gram(ch)
            sol = solve_sdp(embed(g), k=4, tol=1e-8, max_iter=20_000)
            assert sol.converged
            assert sol.objective <= boolean_minimum(g.a, 4) + 1e-5

    # Desk instances 21 and 33 have degenerate spectra that once broke a
    # sliced LAPACK eigensolver.
    @pytest.mark.parametrize(
        ("seed", "tol"),
        [(321, 1e-7), ([9000, 21], 1e-8), ([9000, 33], 1e-8)],
        ids=["seed321", "desk21", "desk33"],
    )
    def test_solution_invariants_at_convergence(self, seed, tol):
        g = build_gram(small_mimo_channel(seed=seed))
        sol = solve_sdp(embed(g), k=4, tol=tol, max_iter=20_000)
        assert sol.converged
        assert sol.objective <= boolean_minimum(g.a, 4) + 1e-5
        s = sol.s_hat
        n = s.shape[0]
        assert np.linalg.eigvalsh(s).min() >= -1e-7
        assert abs(s[n - 1, n - 1] - 1.0) <= 1e-6
        assert np.abs(np.diag(s)[: n - 1] - s[: n - 1, n - 1]).max() <= 1e-6
        assert abs(s[n - 1, :].sum() - 5.0) <= 1e-5

    def test_rotation_reduction_matches_plain_solve(self):
        rng = np.random.default_rng(64)
        gains = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * np.sqrt(0.5)
        ch = build_quantized_mimo(ComplexChannelMatrix(gains), SnrPoint.from_db(5.0))
        b = embed(build_gram(ch))
        m = ch.num_inputs
        # A random relabelling of the inputs hides the rotation.
        relabel = np.append(rng.permutation(m), m)
        b_relabelled = b[np.ix_(relabel, relabel)]
        assert _input_orbits(b).shape == (m // 4, 4)
        assert _input_orbits(b_relabelled).shape == (m, 1)

        reduced = solve_sdp(b, k=4, tol=1e-6, max_iter=20_000)
        plain = solve_sdp(b_relabelled, k=4, tol=1e-6, max_iter=20_000)
        assert reduced.converged and plain.converged
        assert reduced.iterations == plain.iterations
        assert reduced.objective == pytest.approx(plain.objective, abs=1e-8)
        undo = np.empty_like(relabel)
        undo[relabel] = np.arange(m + 1)
        assert np.abs(plain.s_hat[np.ix_(undo, undo)] - reduced.s_hat).max() <= 1e-6
        rot = np.append(qpsk_rotation(3), m)
        np.testing.assert_array_equal(reduced.s_hat[np.ix_(rot, rot)], reduced.s_hat)

    def test_generic_channel_not_reduced(self):
        b = embed(build_gram(random_channel(64, 64, seed=3)))
        assert _input_orbits(b).shape == (64, 1)

    def test_nonconvergence_flag(self):
        ch = small_mimo_channel(seed=350)
        sol = solve_sdp(embed(build_gram(ch)), k=4, tol=1e-12, max_iter=5)
        assert not sol.converged
        assert sol.iterations == 5
        assert sol.primal_residual > 0.0

    def test_bad_inputs(self):
        g = embed(build_gram(random_channel(4, 4, seed=0)))
        with pytest.raises(ValueError):
            solve_sdp(g, k=0)
        with pytest.raises(ValueError):
            # SubsetMask's range is [2, M]; k=1 is refused before any ADMM step.
            solve_sdp(g, k=1)
        with pytest.raises(ValueError):
            solve_sdp(g, k=5)
        with pytest.raises(ValueError):
            solve_sdp(g, k=2, tol=0.0)


class TestPsdFactorize:
    def _sol(self, s):
        return SdpSolution(
            s_hat=s, objective=0.0, primal_residual=0.0, dual_residual=0.0,
            iterations=1, converged=True,
        )

    def test_identity(self):
        v = psd_factorize(self._sol(np.eye(4)))
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)

    def test_rank_one(self):
        s_vec = np.array([0.5, -1.0, 2.0])
        v = psd_factorize(self._sol(np.outer(s_vec, s_vec)))
        np.testing.assert_allclose(v.T @ v, np.outer(s_vec, s_vec), atol=1e-10)
        # Rows from numerically-zero eigenvalues have norms around sqrt(eps).
        norms = np.linalg.norm(v, axis=1)
        assert (norms > 1e-6).sum() == 1
        row = v[norms.argmax()]
        np.testing.assert_allclose(
            np.abs(row / np.linalg.norm(row)), np.abs(s_vec / np.linalg.norm(s_vec)),
            atol=1e-12,
        )

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        s = q @ np.diag(rng.uniform(0, 3, size=10)) @ q.T
        s = (s + s.T) / 2
        v = psd_factorize(self._sol(s))
        assert np.abs(v.T @ v - s).max() <= 1e-10

    def test_rejects_indefinite(self):
        s = np.diag([1.0, -1e-4])
        with pytest.raises(ValueError, match="eigenvalue"):
            psd_factorize(self._sol(s))


class TestRoundSolution:
    def test_top_k_quantization(self):
        # Rank-one solution: every draw reproduces the underlying point,
        # whose first-M entries are [0.9, -0.2, 0.5, 0.1].
        s_vec = np.array([0.9, -0.2, 0.5, 0.1, 1.0])
        s = np.outer(s_vec, s_vec)
        v = psd_factorize(SdpSolution(s, 0.0, 0.0, 0.0, 1, True))
        b_mat = np.zeros((5, 5))
        b_mat[:4, :4] = np.eye(4)
        mask, _ = round_solution(v, 2, b_mat, RoundingConfig(n_rand=20, rng_seed=0))
        np.testing.assert_array_equal(mask.bits, [True, False, True, False])

    def test_eigen_method_same_rank_one(self):
        s_vec = np.array([0.9, -0.2, 0.5, 0.1, 1.0])
        s = np.outer(s_vec, s_vec)
        v = psd_factorize(SdpSolution(s, 0.0, 0.0, 0.0, 1, True))
        b_mat = np.zeros((5, 5))
        b_mat[:4, :4] = np.eye(4)
        mask, _ = round_solution(v, 2, b_mat, RoundingConfig(method="eigen", rng_seed=0))
        np.testing.assert_array_equal(mask.bits, [True, False, True, False])

    def test_every_mask_has_k_ones(self):
        ch = small_mimo_channel(seed=400)
        b_mat = embed(build_gram(ch))
        sol = solve_sdp(b_mat, k=6, tol=1e-7, max_iter=20_000)
        v = psd_factorize(sol)
        for seed in range(5):
            mask, _ = round_solution(v, 6, b_mat, RoundingConfig(n_rand=10, rng_seed=seed))
            assert mask.k == 6

    def test_more_draws_never_worse(self):
        ch = small_mimo_channel(seed=405)
        b_mat = embed(build_gram(ch))
        sol = solve_sdp(b_mat, k=4, tol=1e-7, max_iter=20_000)
        v = psd_factorize(sol)
        _, obj1 = round_solution(v, 4, b_mat, RoundingConfig(n_rand=1, rng_seed=3))
        _, obj100 = round_solution(v, 4, b_mat, RoundingConfig(n_rand=100, rng_seed=3))
        assert obj100 <= obj1

    def test_determinism(self):
        ch = small_mimo_channel(seed=410)
        b_mat = embed(build_gram(ch))
        sol = solve_sdp(b_mat, k=4, tol=1e-7, max_iter=20_000)
        v = psd_factorize(sol)
        cfg = RoundingConfig(n_rand=50, rng_seed=17)
        a = round_solution(v, 4, b_mat, cfg)
        b = round_solution(v, 4, b_mat, cfg)
        np.testing.assert_array_equal(a[0].bits, b[0].bits)
        assert a[1] == b[1]


class TestSdpSelect:
    def test_noiseless_full_cutoff(self):
        ch = DmcChannel.from_probs(np.eye(8))
        res = sdp_select(ch, 4, tol=1e-8, cfg=RoundingConfig(n_rand=20, rng_seed=0))
        assert res.cutoff_rate_bits == pytest.approx(2.0, abs=1e-9)

    def test_near_exhaustive_on_mimo(self):
        hits = 0
        for seed in range(10):
            ch = small_mimo_channel(seed=seed + 500)
            res = sdp_select(ch, 4, tol=1e-8, cfg=RoundingConfig(n_rand=100, rng_seed=seed))
            _, best = exhaustive_select(ch, 4, "cutoff")
            assert res.cutoff_rate_bits <= best + 1e-12
            hits += int(res.cutoff_rate_bits >= 0.98 * best)
        assert hits >= 9

    def test_bound_dominates_achievable(self):
        ch = small_mimo_channel(seed=520)
        res = sdp_select(ch, 4, tol=1e-8, cfg=RoundingConfig(n_rand=50, rng_seed=1))
        _, best = exhaustive_select(ch, 4, "cutoff")
        assert res.sdp_bound_bits >= best - 1e-6
        assert res.cutoff_rate_bits == cutoff_rate(ch, res.mask)
