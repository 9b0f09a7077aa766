"""Cutoff-rate subset selection via semidefinite relaxation.

Selecting the size-k subset that maximizes the cutoff rate is equivalent to
minimizing b^T A b over binary b with exactly k ones, where A is the Gram
matrix of square-root likelihood rows (pairwise confusability). The problem
is lifted with a sign slack variable to a symmetric form, relaxed by dropping
the rank-one constraint, solved by an ADMM splitting between the affine
constraint set and the PSD cone, and rounded back to a subset: Gaussian
draws from the solution covariance plus its dominant eigenvector are each
quantized to their top k entries, and the best is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DmcChannel, SubsetMask
from .mimo import qpsk_rotation
from .rates import check_stopping_rule, cutoff_bits, cutoff_rate

_RHO_INIT = 1.0  # ADMM penalty at the start; residual balancing rescales it
_ALPHA = 1.6  # ADMM over-relaxation
_AA_MEMORY = 5  # Anderson acceleration: past steps that enter each extrapolation
_AA_REG = 1e-10  # Tikhonov weight of the small solve, relative to its trace


@dataclass(frozen=True)
class SdpSolution:
    """PSD iterate of the relaxed program with solver diagnostics.

    ``s_hat`` is exactly PSD (it leaves the cone projection); the affine
    constraints hold up to ``primal_residual``.
    """

    s_hat: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class RoundingConfig:
    n_rand: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (1 <= self.n_rand <= 10**6):
            raise ValueError("n_rand must be in [1, 10^6]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def build_gram(ch: DmcChannel) -> np.ndarray:
    """Pairwise confusability A_ij = sum_y sqrt(P(y|i) P(y|j)): an exactly
    symmetric M x M array with entries in [0, 1] and a diagonal of 1."""
    sq = np.sqrt(ch.trans)
    a = sq @ sq.T
    a = np.minimum((a + a.T) / 2.0, 1.0)
    np.fill_diagonal(a, 1.0)
    return a


# Orbit coordinates pay off from this M on: on a 2-core x86 box, 300
# iterations on Z4-invariant Gram matrices took 0.14/0.18/0.23/0.32 ms per
# iteration plain and 0.23/0.21/0.21/0.25 orbit-wise at M = 16/24/28/32.
# The QPSK rotation exists only for M = 4^T, so M = 16 stays plain.
_REDUCE_MIN_M = 32
_INVARIANCE_TOL = 1e-12


def _input_orbits(a: np.ndarray) -> np.ndarray:
    """(g, r) array whose row o lists the inputs (o, 0), ..., (o, r-1).

    Input (o, a) is the a-th rotation x -> j^a x of the orbit's first input.
    The rotation is used (r = 4) when M = 4^T reaches ``_REDUCE_MIN_M`` and
    the M x M Gram matrix is invariant under it; otherwise r = 1.
    """
    m = a.shape[0]
    t = round(math.log(m, 4))
    if m < _REDUCE_MIN_M or 4**t != m:
        return np.arange(m)[:, None]
    perm = qpsk_rotation(t)
    if np.abs(a[np.ix_(perm, perm)] - a).max() > _INVARIANCE_TOL:
        return np.arange(m)[:, None]
    powers = [np.arange(m)]
    for _ in range(3):
        powers.append(perm[powers[-1]])
    orbits = np.stack(powers, axis=1)
    return orbits[orbits.min(axis=1) == orbits[:, 0]]


def _reduce(mat: np.ndarray, orbits: np.ndarray) -> np.ndarray:
    """Orbit coordinates (r, g+1, g+1) of an invariant (M+1) x (M+1) matrix.

    Block d holds c[d][o, o'] = S[(o, a), (o', a + d)]; the border s[o] =
    S[(o, a), M] and the corner t = S[M, M] sit in row and column g of block
    0, and the borders of the other blocks are zero. With r = 1 this is the
    matrix itself.
    """
    g, r = orbits.shape
    m = mat.shape[0] - 1
    rows = np.append(orbits[:, 0], m)
    out = np.zeros((r, g + 1, g + 1))
    out[0] = mat[np.ix_(rows, rows)]
    for d in range(1, r):
        out[d, :g, :g] = mat[np.ix_(orbits[:, 0], orbits[:, d])]
    return out


def _expand(x: np.ndarray, orbits: np.ndarray) -> np.ndarray:
    """Inverse of ``_reduce``: the full matrix in the original input order."""
    g, r = orbits.shape
    m = g * r
    out = np.empty((m + 1, m + 1))
    for a in range(r):
        for d in range(r):
            out[np.ix_(orbits[:, a], orbits[:, (a + d) % r])] = x[d, :g, :g]
        out[orbits[:, a], m] = x[0, :g, g]
        out[m, orbits[:, a]] = x[0, g, :g]
    out[m, m] = x[0, g, g]
    return out


def _affine_project(x: np.ndarray, k: int) -> np.ndarray:
    """Closest point with S_nn = 1, S_ii = S_in, sum_i S_ni = k+1.

    Only the diagonal, the last row/column, and the corner are constrained,
    so the projection is closed-form in those coordinates. Works on orbit
    coordinates, where every orbit value stands for r entries.
    """
    r, n, _ = x.shape
    g = n - 1
    out = x.copy()
    d0 = np.diag(x[0])[:g]
    v0 = x[0, :g, g]
    w = (d0 + 2.0 * v0) / 3.0
    v = w - (r * w.sum() - k) / (r * g)
    out[0, g, g] = 1.0
    idx = np.arange(g)
    out[0, idx, idx] = v
    out[0, :g, g] = v
    out[0, g, :g] = v
    return out


def _clip(a: np.ndarray) -> np.ndarray:
    """Nearest PSD (Hermitian) matrix to the Hermitian part of ``a``."""
    w, q = np.linalg.eigh((a + a.conj().T) / 2.0)
    pos = w > 0.0
    qp = q[:, pos]
    return (qp * w[pos]) @ qp.conj().T


def _psd_project(x: np.ndarray) -> np.ndarray:
    """Project orbit coordinates onto the PSD cone of the full matrix.

    A length-4 DFT over d block-diagonalizes the invariant matrix: frequency
    0 is the real block sum_d c[d] bordered by 2s and t, frequency 2 the real
    block sum_d (-1)^d c[d], frequency 1 the Hermitian block
    (c[0] - c[2]) + j (c[1] - c[3]), and frequency 3 its conjugate. Each
    block is clipped on its own and the DFT undone.
    """
    r, n, _ = x.shape
    if r == 1:
        return _clip(x[0])[None]
    g = n - 1
    c = x[:, :g, :g]
    f0 = x.sum(axis=0)
    f0[:g, g] *= 2.0
    f0[g, :g] *= 2.0
    p0 = _clip(f0)
    p2 = _clip(c[0] - c[1] + c[2] - c[3])
    p1 = _clip((c[0] - c[2]) + 1j * (c[1] - c[3]))
    even = (p0[:g, :g] + p2) / 4.0
    odd = (p0[:g, :g] - p2) / 4.0
    re = p1.real / 2.0
    im = p1.imag / 2.0
    out = np.zeros_like(x)
    out[0, :g, :g] = even + re
    out[1, :g, :g] = odd + im
    out[2, :g, :g] = even - re
    out[3, :g, :g] = odd - im
    out[0, :g, g] = p0[:g, g] / 2.0
    out[0, g, :g] = p0[g, :g] / 2.0
    out[0, g, g] = p0[g, g]
    return out


def _constraint_violation(x: np.ndarray, k: int) -> float:
    r, n, _ = x.shape
    g = n - 1
    diag_vs_border = np.abs(np.diag(x[0])[:g] - x[0, :g, g]).max()
    corner = abs(x[0, g, g] - 1.0)
    border_sum = abs(r * x[0, g, :g].sum() + x[0, g, g] - (k + 1))
    return max(diag_vs_border, corner, border_sum)


class _Packing:
    """The (z, u) pair of orbit coordinates as one vector of its free entries.

    Block 0 (with its border) and block 2 are symmetric and block 3 is the
    transpose of block 1, so only the upper triangles of blocks 0 and 2 and
    all of block 1 are kept. Each entry is weighted by the square root of the
    number of entries it stands for in the full (M+1) x (M+1) matrix, so dot
    products of packed vectors are Frobenius products of full matrices, and
    the orbit and the plain loop take the same steps.
    """

    def __init__(self, g: int, r: int) -> None:
        n = g + 1
        # (block, block of the mirror entry, rows, columns) of the free entries
        parts = [(0, 0, *np.triu_indices(n))]
        if r == 4:
            parts += [(2, 2, *np.triu_indices(g)), (1, 3, *np.indices((g, g)).reshape(2, -1))]
        block = np.concatenate([np.full(i.size, d) for d, _, i, _ in parts])
        mirror = np.concatenate([np.full(i.size, e) for _, e, i, _ in parts])
        row = np.concatenate([i for _, _, i, _ in parts])
        col = np.concatenate([j for _, _, _, j in parts])
        # An entry and its mirror image each stand for r full entries; the
        # corner stands for itself alone.
        mult = np.where((row != col) | (block != mirror), 2.0 * r, 1.0 * r)
        mult[n * (n + 1) // 2 - 1] = 1.0  # last of block 0's upper triangle
        p = self.size = row.size
        # The zero borders of blocks 1-3 read an extra last slot, kept at 0.
        slot = np.full((r, n, n), 2 * p)
        slot[block, row, col] = slot[mirror, col, row] = np.arange(p)
        self._take = np.ravel_multi_index((block, row, col), slot.shape)
        self._weights = np.tile(np.sqrt(mult), 2)
        self._unweights = 1.0 / self._weights
        self._put = np.stack((slot, np.where(slot < 2 * p, slot + p, slot)))
        self._ext = np.zeros(2 * p + 1)
        self._zu = np.empty((2, r, n, n))

    def pack(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        # The indices are in range; any mode but "raise" lets take write
        # into ``out`` without buffering a copy.
        p = self.size
        out = np.empty(2 * p)
        np.take(z, self._take, out=out[:p], mode="clip")
        np.take(u, self._take, out=out[p:], mode="clip")
        out *= self._weights
        return out

    def unpack(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(z, u) of a packed vector, written over the previous unpack's."""
        np.multiply(w, self._unweights, out=self._ext[:-1])
        np.take(self._ext, self._put, out=self._zu, mode="clip")
        return self._zu[0], self._zu[1]


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map F.

    Rows of ``_dg`` and ``_df`` hold, in a ring of ``_AA_MEMORY`` rows, the
    differences of successive residuals w - F(w) and of successive map values
    F(w); ``_gram`` is dg dg^T, updated one row per step. While the newest
    point is an extrapolation, ``_fallback`` holds the plain step it replaced
    and ``_fallback_norm`` the residual norm that step came from.

    Products with the ring always take all its rows (unused ones are zero or
    stale, and their results are dropped): OpenBLAS splits a product with
    several rows between its threads by output entries, but a one-row
    product is a dot product, which it splits within the sum, so the steps
    would depend on the thread count. The residual norm uses ``np.einsum``'s
    own loop for that reason.
    """

    def __init__(self, size: int) -> None:
        self._dg = np.zeros((_AA_MEMORY, size))
        self._df = np.zeros((_AA_MEMORY, size))
        self._gram = np.zeros((_AA_MEMORY, _AA_MEMORY))
        self._clear()

    def _clear(self) -> None:
        self._count = 0
        self._next = 0
        self._prev: tuple[np.ndarray, np.ndarray] | None = None
        self._fallback: np.ndarray | None = None
        self._fallback_norm = math.inf

    def advance(self, w: np.ndarray, f: np.ndarray, restart: bool) -> np.ndarray:
        """The point to evaluate after w, given f = F(w).

        If w is an extrapolation whose residual norm exceeds that of the
        point it came from, it is rejected: the history is cleared and the
        plain step it replaced is returned. With ``restart`` the history is
        cleared and the plain step returned. Otherwise the pair is recorded
        and f - dF^T gamma returned, where gamma minimizes |g - dG^T gamma|
        (Tikhonov-regularized) for g = w - f; f itself when there is no
        history yet or the small solve fails, which clears the history.
        """
        g = w - f
        norm = math.sqrt(np.einsum("i,i->", g, g))
        if self._fallback is not None and norm > self._fallback_norm:
            plain = self._fallback
            self._clear()
            return plain
        if restart:
            self._clear()
            return f
        self._fallback = None
        prev, self._prev = self._prev, (g, f)
        if prev is None:
            return f
        j = self._next
        np.subtract(g, prev[0], out=self._dg[j])
        np.subtract(f, prev[1], out=self._df[j])
        self._next = (j + 1) % _AA_MEMORY
        self._count = c = min(self._count + 1, _AA_MEMORY)
        gram = self._gram[:c, :c]
        gram[j] = gram[:, j] = (self._dg @ self._dg[j])[:c]
        h = gram + (_AA_REG * gram.trace()) * np.eye(c)
        try:
            gamma = np.linalg.solve(h, (self._dg @ g)[:c])
        except np.linalg.LinAlgError:
            gamma = None
        if gamma is None or not np.isfinite(gamma).all():
            self._clear()
            return f
        self._fallback, self._fallback_norm = f, norm
        coef = np.zeros(_AA_MEMORY)
        coef[:c] = gamma
        out = coef @ self._df
        return np.subtract(f, out, out=out)


def solve_sdp(a: np.ndarray, k: int, tol: float = 1e-6, max_iter: int = 5000) -> SdpSolution:
    """Minimize tr(B S) over PSD S meeting the subset-lift affine constraints.

    B is the M x M Gram matrix ``a`` (from ``build_gram``) bordered by a zero
    row and column for the slack entry, so S and B are (M+1) x (M+1).

    ADMM with over-relaxation: alternate the closed-form affine projection
    and the eigenvalue-clipping PSD projection, carrying a scaled dual. The
    penalty parameter self-tunes by residual balancing. Terminates when both
    the max affine violation of the PSD iterate (plus the splitting gap) and
    the dual step fall below ``tol``.

    The ADMM step is a fixed-point map of the pair (z, u), accelerated by
    safeguarded type-II Anderson extrapolation over the last ``_AA_MEMORY``
    steps (Zhang, O'Donoghue & Boyd 2020; see ``_Anderson``). An
    extrapolated point is kept only if its fixed-point residual is no larger
    than that of the point it came from; otherwise the loop goes on from the
    plain step it replaced. The history is cleared then, on every penalty
    change, and when the small solve fails. ``iterations`` counts PSD
    projections, rejected extrapolations included, and ``s_hat`` is always
    a projection's output, never an extrapolated point.

    When A is invariant under the QPSK input rotation (see ``_input_orbits``)
    every iterate is too, so the loop stores one value per orbit of entries
    and projects three Fourier blocks of size about M/4; the iterates and
    residuals equal the plain loop's up to rounding.
    """
    check_stopping_rule(tol, max_iter)
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    if a.shape != (m, m) or m < 2:
        raise ValueError("Gram matrix must be M x M with M >= 2")
    if not (2 <= k <= m):
        raise ValueError(f"k must be in [2, {m}], got {k}")

    b_mat = np.pad(a, (0, 1))
    orbits = _input_orbits(a)
    g, r = orbits.shape
    b_red = _reduce(b_mat, orbits)

    # Start from the covariance of a uniformly random k-subset lift: feasible
    # for every constraint and PSD.
    off = k * (k - 1) / (m * (m - 1))
    z = np.zeros((r, g + 1, g + 1))
    z[:, :g, :g] = off
    idx = np.arange(g)
    z[0, idx, idx] = k / m
    z[0, :g, g] = k / m
    z[0, g, :g] = k / m
    z[0, g, g] = 1.0
    u = np.zeros_like(z)

    packing = _Packing(g, r)
    accel = _Anderson(2 * packing.size)
    w = packing.pack(z, u)
    rho = _RHO_INIT
    primal = dual = math.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        x = _affine_project(z - u - b_red / rho, k)
        x_hat = _ALPHA * x + (1.0 - _ALPHA) * z
        z_psd = _psd_project(x_hat + u)
        u += x_hat - z_psd
        primal = max(
            _constraint_violation(z_psd, k), float(np.abs(x - z_psd).max())
        )
        dual = rho * float(np.abs(z_psd - z).max())
        if max(primal, dual) < tol:
            converged = True
            break
        scale = 1.0
        if iterations % 10 == 0:
            if primal > 10.0 * dual and rho < 1e6:
                scale = 0.5
            elif dual > 10.0 * primal and rho > 1e-6:
                scale = 2.0
        w = accel.advance(w, packing.pack(z_psd, u), restart=scale != 1.0)
        if scale != 1.0:
            rho /= scale
            w[packing.size :] *= scale  # the scaled dual u
        z, u = packing.unpack(w)

    s_hat = _expand(z_psd, orbits)
    return SdpSolution(
        s_hat=s_hat,
        objective=float((b_mat * s_hat).sum()),
        primal_residual=primal,
        dual_residual=dual,
        iterations=iterations,
        converged=converged,
    )


def psd_factorize(sol: SdpSolution) -> np.ndarray:
    """Factor V with V^T V = s_hat, via eigendecomposition.

    Negative eigenvalues are clipped to zero; anything below -1e-5 means the
    solution is not acceptably PSD and raises.
    """
    s = sol.s_hat
    w, q = np.linalg.eigh((s + s.T) / 2.0)
    if float(w.min()) < -1e-5:
        raise ValueError(f"solution has eigenvalue {w.min()!r}, not PSD")
    np.maximum(w, 0.0, out=w)
    return np.sqrt(w)[:, None] * q.T


def _quantize_top_k(s_vec: np.ndarray, k: int) -> np.ndarray:
    """Sign-normalize on the slack entry, then select the k largest of the
    first M entries (ties to the smallest index)."""
    if s_vec[-1] < 0.0:
        s_vec = -s_vec
    m = s_vec.shape[0] - 1
    order = np.argsort(-s_vec[:m], kind="stable")
    return np.sort(order[:k])


def round_solution(
    v: np.ndarray,
    k: int,
    a: np.ndarray,
    cfg: RoundingConfig,
) -> tuple[SubsetMask, float]:
    """Recover a k-subset from ``psd_factorize``'s factor V of the relaxed solution.

    V has M + 1 columns and ``a`` is the M x M Gram matrix. The candidates
    are s = V^T u for ``cfg.n_rand`` unit-sphere draws u (one stream per
    draw index), then V's last row: ``psd_factorize`` orders rows by
    ascending eigenvalue, so that is the dominant eigenvector scaled by
    sqrt(lambda_max). Each is quantized and scored by b^T A b as it is
    drawn; the first strict minimum wins.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[1]
    m = n - 1
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (m, m):
        raise ValueError(f"Gram matrix must be {m} x {m} for {n} factor columns, got {a.shape}")

    best_idx: np.ndarray | None = None
    best_obj = math.inf
    for i in range(cfg.n_rand + 1):
        if i == cfg.n_rand:
            s_vec = v[-1]
        else:
            u = np.random.default_rng([cfg.rng_seed, i]).standard_normal(n)
            s_vec = v.T @ (u / np.linalg.norm(u))
        chosen = _quantize_top_k(s_vec, k)
        obj = float(a[np.ix_(chosen, chosen)].sum())
        if obj < best_obj:
            best_obj = obj
            best_idx = chosen
    assert best_idx is not None
    return SubsetMask.from_indices(m, best_idx), best_obj


@dataclass(frozen=True)
class SdpSelectResult:
    """Output of the full relaxation pipeline for one channel and k.

    Derived from ``solution``: ``sdp_objective``, the relaxation's objective,
    and ``sdp_bound_bits``, the cutoff-rate upper bound 2*log2(k) -
    log2(objective) it gives (inf unless the objective is positive).
    """

    mask: SubsetMask
    cutoff_rate_bits: float
    rounded_objective: float
    solution: SdpSolution

    @property
    def sdp_objective(self) -> float:
        return self.solution.objective

    @property
    def sdp_bound_bits(self) -> float:
        obj = self.sdp_objective
        return float(cutoff_bits(self.mask.k, obj)) if obj > 0.0 else math.inf


def sdp_select(
    ch: DmcChannel,
    k: int,
    tol: float = 1e-6,
    cfg: RoundingConfig | None = None,
    max_iter: int = 5000,
) -> SdpSelectResult:
    """Gram build, relaxed solve, factorization, and rounding in one call."""
    if cfg is None:
        cfg = RoundingConfig()
    a = build_gram(ch)
    sol = solve_sdp(a, k, tol=tol, max_iter=max_iter)
    v = psd_factorize(sol)
    mask, rounded_obj = round_solution(v, k, a, cfg)
    return SdpSelectResult(
        mask=mask,
        cutoff_rate_bits=cutoff_rate(ch, mask),
        rounded_objective=rounded_obj,
        solution=sol,
    )
