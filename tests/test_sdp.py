"""Tests for the semidefinite relaxation pipeline.

Boolean optima used as references are independently enumerated over all
subsets; algebraic identities of the lift are checked on random points.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
    exhaustive_select,
    psd_factorize,
    round_solution,
    sdp_select,
    solve_sdp,
)
from dmc_shaper import sdp
from dmc_shaper.mimo import qpsk_rotation
from dmc_shaper.sdp import SdpSolution, _input_orbits, _quantize_top_k


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
            np.testing.assert_array_equal(np.diag(g), 1.0)

    def test_disjoint_support_rows(self):
        ch = DmcChannel.from_probs(np.eye(3))
        g = build_gram(ch)
        assert g[0, 1] == 0.0

    def test_bsc_off_diagonal(self):
        g = build_gram(bsc(0.1))
        assert g[0, 1] == pytest.approx(0.6, abs=1e-15)

    def test_positive_semidefinite(self):
        for seed in range(5):
            g = build_gram(random_channel(7, 5, seed))
            w = np.linalg.eigvalsh(g)
            assert w.min() >= -1e-10


class TestEmbed:
    """The zero-bordered lift that ``solve_sdp`` builds from the Gram matrix."""

    def test_trace_preserved(self):
        g = build_gram(random_channel(6, 4, seed=1))
        assert np.trace(g) == pytest.approx(6.0)

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
        b_mat = np.pad(g, (0, 1))
        direct = float(b_vec @ g @ b_vec)
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
        sol = solve_sdp(g, k=5, tol=1e-9, max_iter=20_000)
        assert sol.converged
        want = float(g.sum())
        assert sol.objective == pytest.approx(want, abs=1e-5)
        mask, _ = round_solution(psd_factorize(sol), 5, g, RoundingConfig(n_rand=5, rng_seed=0))
        assert mask.k == 5

    def test_orthogonal_rows_objective_forced_to_k(self):
        # With A = I the affine constraints force tr(B S) = k exactly.
        g = build_gram(DmcChannel.from_probs(np.eye(6)))
        sol = solve_sdp(g, k=3, tol=1e-9, max_iter=20_000)
        assert sol.converged
        assert sol.objective == pytest.approx(3.0, abs=1e-6)

    def test_relaxation_lower_bounds_boolean_minimum(self):
        for seed in range(5):
            ch = small_mimo_channel(seed=seed + 300)
            g = build_gram(ch)
            sol = solve_sdp(g, k=4, tol=1e-8, max_iter=20_000)
            assert sol.converged
            assert sol.objective <= boolean_minimum(g, 4) + 1e-5

    # Desk instances 21 and 33 have degenerate spectra that once broke a
    # sliced LAPACK eigensolver.
    @pytest.mark.parametrize(
        ("seed", "tol"),
        [(321, 1e-7), ([9000, 21], 1e-8), ([9000, 33], 1e-8)],
        ids=["seed321", "desk21", "desk33"],
    )
    def test_solution_invariants_at_convergence(self, seed, tol):
        g = build_gram(small_mimo_channel(seed=seed))
        sol = solve_sdp(g, k=4, tol=tol, max_iter=20_000)
        assert sol.converged
        assert sol.objective <= boolean_minimum(g, 4) + 1e-5
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
        a = build_gram(ch)
        m = ch.num_inputs
        # A random relabelling of the inputs hides the rotation.
        relabel = rng.permutation(m)
        a_relabelled = a[np.ix_(relabel, relabel)]
        assert _input_orbits(a).shape == (m // 4, 4)
        assert _input_orbits(a_relabelled).shape == (m, 1)

        reduced = solve_sdp(a, k=4, tol=1e-6, max_iter=20_000)
        plain = solve_sdp(a_relabelled, k=4, tol=1e-6, max_iter=20_000)
        assert reduced.converged and plain.converged
        assert reduced.iterations == plain.iterations
        assert reduced.objective == pytest.approx(plain.objective, abs=1e-8)
        # s_hat carries the slack index M, which the relabelling keeps.
        undo = np.empty(m + 1, dtype=np.intp)
        undo[np.append(relabel, m)] = np.arange(m + 1)
        assert np.abs(plain.s_hat[np.ix_(undo, undo)] - reduced.s_hat).max() <= 1e-6
        rot = np.append(qpsk_rotation(3), m)
        np.testing.assert_array_equal(reduced.s_hat[np.ix_(rot, rot)], reduced.s_hat)

    def test_generic_channel_not_reduced(self):
        a = build_gram(random_channel(64, 64, seed=3))
        assert _input_orbits(a).shape == (64, 1)

    def test_nonconvergence_flag(self):
        ch = small_mimo_channel(seed=350)
        sol = solve_sdp(build_gram(ch), k=4, tol=1e-12, max_iter=5)
        assert not sol.converged
        assert sol.iterations == 5
        assert sol.primal_residual > 0.0

    def test_bad_inputs(self):
        g = build_gram(random_channel(4, 4, seed=0))
        with pytest.raises(ValueError):
            solve_sdp(g, k=0)
        with pytest.raises(ValueError):
            # SubsetMask's range is [2, M]; k=1 is refused before any ADMM step.
            solve_sdp(g, k=1)
        with pytest.raises(ValueError):
            solve_sdp(g, k=5)
        with pytest.raises(ValueError):
            solve_sdp(g, k=2, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_sdp(g, k=2, tol=float("nan"))
        with pytest.raises(ValueError, match="max_iter"):
            solve_sdp(g, k=2, max_iter=0)


@pytest.fixture(scope="module")
def budget_stops():
    """Desk 21 solved with tol out of reach: once with a loose budget, where
    the loop runs until rounding leaves it no interior step, and once for
    every max_iter in 1..40."""
    g = build_gram(small_mimo_channel(seed=[9000, 21]))
    free = solve_sdp(g, k=4, tol=1e-15, max_iter=1000)
    return free, {n: solve_sdp(g, k=4, tol=1e-15, max_iter=n) for n in range(1, 41)}


class TestAndersonAcceleration:
    """Iteration count and thread determinism of the solve (the class name
    is older than its interior-point method and is kept for the test ids)."""

    def test_desk21_converges_fast(self):
        # 14,750 iterations without acceleration.
        g = build_gram(small_mimo_channel(seed=[9000, 21]))
        sol = solve_sdp(g, k=4, tol=1e-8, max_iter=20_000)
        assert sol.converged
        assert sol.iterations < 2_000

    def test_psd_after_accepted_extrapolation(self, budget_stops):
        # Wherever the budget cuts the loop, s_hat is the last accepted
        # iterate: PSD, with the certified bound below its objective.
        _, stopped = budget_stops
        for sol in stopped.values():
            assert np.linalg.eigvalsh(sol.s_hat).min() >= -1e-12
            assert sol.lower_bound <= sol.objective

    def test_rejected_extrapolation_counts_toward_max_iter(self, budget_stops):
        # Every step counts toward max_iter: each shorter budget is spent in
        # full, and a longer one stops where the free run stopped.
        free, stopped = budget_stops
        assert not free.converged and 10 < free.iterations < 1000
        for max_iter, sol in stopped.items():
            assert not sol.converged
            assert sol.iterations == min(max_iter, free.iterations)

    def test_steps_do_not_depend_on_blas_threads(self):
        # The history's dot products are as long as 16,642 entries here, where
        # a BLAS that splits one sum between threads would change its bits.
        # At 22.5 dB the Fourier blocks' spectra are nearly degenerate, so
        # s_hat's trip back from the blocks is pinned there too.
        code = (
            "import hashlib, dmc_shaper as d\n"
            "h = d.example_h4x4()\n"
            "for db, k, max_iter in ((0.0, 16, 150), (22.5, 16, 5000), (22.5, 64, 5000)):\n"
            "    ch = d.build_quantized_mimo(h, d.SnrPoint.from_db(db))\n"
            "    sol = d.solve_sdp(d.build_gram(ch), k, tol=1e-4, max_iter=max_iter)\n"
            "    print(sol.iterations, hashlib.sha256(sol.s_hat.tobytes()).hexdigest())\n"
        )
        src = str(Path(sdp.__file__).resolve().parents[1])
        outputs = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestInteriorPoint:
    @pytest.mark.parametrize("r", [1, 4])
    def test_schur_complement_matches_brute_force(self, r):
        g = 5
        rt = math.sqrt(r)
        rng = np.random.default_rng(r)
        orbits = np.arange(g * r).reshape(g, r)
        # An input permutation that turns every orbit, and a matrix invariant
        # under it: the sum of a random symmetric matrix over the group.
        turn = np.append(np.roll(orbits, -1, axis=1).ravel(), g * r)
        x = rng.standard_normal((g * r + 1, g * r + 1))
        turns = [x + x.T]
        for _ in range(r - 1):
            turns.append(turns[-1][np.ix_(turn, turn)])
        s = sum(turns)
        blocks = sdp._to_blocks(s, orbits)
        np.testing.assert_allclose(sdp._to_full(blocks, orbits), s, atol=1e-12)

        # A(S) on the blocks: orbit sums of S_ii - S_in, the corner and
        # the border sum.
        n = g * r
        want = [sum(s[i, i] - s[i, n] for i in orbit) for orbit in orbits]
        want += [s[n, n], s[n].sum()]
        np.testing.assert_allclose(sdp._constraints(blocks, rt), want, atol=1e-12)

        def pd(size, dtype):
            a = rng.standard_normal((size, size)).astype(dtype)
            if dtype == complex:
                a += 1j * rng.standard_normal((size, size))
            return a @ a.conj().T + np.eye(size)

        dtypes = [float, float, complex][: len(blocks)]
        xs = [pd(b.shape[0], t) for b, t in zip(blocks, dtypes)]
        ws = [pd(b.shape[0], t) for b, t in zip(blocks, dtypes)]
        basis = [sdp._adjoint(e, len(blocks), rt) for e in np.eye(g + 2)]
        y = rng.standard_normal(g + 2)
        assert sdp._dot(sdp._adjoint(y, len(blocks), rt), xs) == pytest.approx(
            y @ sdp._constraints(xs, rt), rel=1e-12
        )
        brute = np.array(
            [
                [
                    sum(
                        w * np.trace(ap @ x @ aq @ v).real
                        for ap, aq, x, v, w in zip(bp, bq, xs, ws, sdp._WEIGHTS)
                    )
                    for bq in basis
                ]
                for bp in basis
            ]
        )
        h = sdp._schur(xs, ws, rt)
        assert np.abs(h - brute).max() <= 1e-13 * np.abs(brute).max()

    def test_full_set_returns_forced_lift(self):
        g = build_gram(random_channel(6, 4, seed=7))
        sol = solve_sdp(g, k=6)
        np.testing.assert_array_equal(sol.s_hat, np.ones((7, 7)))
        assert sol.converged and sol.iterations == 0
        assert sol.objective == sol.lower_bound == pytest.approx(g.sum(), rel=1e-15)


class TestPsdFactorize:
    def _sol(self, s):
        return SdpSolution(
            s_hat=s, objective=0.0, primal_residual=0.0, dual_residual=0.0,
            iterations=1, converged=True, lower_bound=0.0,
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
        v = psd_factorize(SdpSolution(s, 0.0, 0.0, 0.0, 1, True, 0.0))
        mask, _ = round_solution(v, 2, np.eye(4), RoundingConfig(n_rand=20, rng_seed=0))
        np.testing.assert_array_equal(mask.bits, [True, False, True, False])

    def test_single_draw_rank_one(self):
        s_vec = np.array([0.9, -0.2, 0.5, 0.1, 1.0])
        s = np.outer(s_vec, s_vec)
        v = psd_factorize(SdpSolution(s, 0.0, 0.0, 0.0, 1, True, 0.0))
        mask, _ = round_solution(v, 2, np.eye(4), RoundingConfig(n_rand=1, rng_seed=0))
        np.testing.assert_array_equal(mask.bits, [True, False, True, False])

    def test_gram_must_match_factor(self):
        v = psd_factorize(SdpSolution(np.eye(5), 0.0, 0.0, 0.0, 1, True, 0.0))
        with pytest.raises(ValueError, match="4 x 4"):
            round_solution(v, 2, np.eye(5), RoundingConfig(n_rand=1))

    def test_k_outside_range_rejected(self):
        v = psd_factorize(SdpSolution(np.eye(7), 0.0, 0.0, 0.0, 1, True, 0.0))
        with pytest.raises(ValueError, match=r"k must be in \[2, 6\]"):
            round_solution(v, 7, np.eye(6), RoundingConfig(n_rand=1))

    def test_quantize_ties_and_sign(self):
        # Equal entries go to the smallest indices; a negative slack entry
        # negates the candidate before its top k are taken.
        np.testing.assert_array_equal(_quantize_top_k(np.ones(7), 3), [0, 1, 2])
        s_vec = np.array([0.9, -0.2, 0.5, 0.1, -1.0])
        np.testing.assert_array_equal(_quantize_top_k(s_vec, 2), [1, 3])

    def test_dominant_eigenvector_candidate_wins(self):
        # Desk instance 16 of the acceptance suite (T=N=2, 10 dB, K=4): the
        # dominant eigenvector rounds to a strictly lower objective than any
        # of the 100 Gaussian draws.
        rng = np.random.default_rng([9000, 16])
        gains = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * np.sqrt(0.5)
        ch = build_quantized_mimo(ComplexChannelMatrix(gains), SnrPoint.from_db(10.0))
        a = build_gram(ch)
        v = psd_factorize(solve_sdp(a, k=4, tol=1e-8, max_iter=20_000))
        cfg = RoundingConfig(n_rand=100, rng_seed=16)

        def top4(s_vec):
            s_vec = -s_vec if s_vec[-1] < 0.0 else s_vec
            return np.sort(np.argsort(-s_vec[:16], kind="stable")[:4])

        draw_objs = []
        for i in range(cfg.n_rand):
            u = np.random.default_rng([cfg.rng_seed, i]).standard_normal(17)
            idx = top4(v.T @ (u / np.linalg.norm(u)))
            draw_objs.append(float(a[np.ix_(idx, idx)].sum()))
        eig_idx = top4(np.linalg.eigh(v.T @ v)[1][:, -1])
        eig_obj = float(a[np.ix_(eig_idx, eig_idx)].sum())
        assert eig_obj < min(draw_objs)

        mask, obj = round_solution(v, 4, a, cfg)
        np.testing.assert_array_equal(mask.indices, eig_idx)
        np.testing.assert_array_equal(mask.indices, top4(v[-1]))
        assert obj == min(draw_objs + [eig_obj])

    def test_every_mask_has_k_ones(self):
        ch = small_mimo_channel(seed=400)
        g = build_gram(ch)
        sol = solve_sdp(g, k=6, tol=1e-7, max_iter=20_000)
        v = psd_factorize(sol)
        for seed in range(5):
            mask, _ = round_solution(v, 6, g, RoundingConfig(n_rand=10, rng_seed=seed))
            assert mask.k == 6

    def test_more_draws_never_worse(self):
        ch = small_mimo_channel(seed=405)
        g = build_gram(ch)
        sol = solve_sdp(g, k=4, tol=1e-7, max_iter=20_000)
        v = psd_factorize(sol)
        _, obj1 = round_solution(v, 4, g, RoundingConfig(n_rand=1, rng_seed=3))
        _, obj100 = round_solution(v, 4, g, RoundingConfig(n_rand=100, rng_seed=3))
        assert obj100 <= obj1

    def test_determinism(self):
        ch = small_mimo_channel(seed=410)
        g = build_gram(ch)
        sol = solve_sdp(g, k=4, tol=1e-7, max_iter=20_000)
        v = psd_factorize(sol)
        cfg = RoundingConfig(n_rand=50, rng_seed=17)
        a = round_solution(v, 4, g, cfg)
        b = round_solution(v, 4, g, cfg)
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
