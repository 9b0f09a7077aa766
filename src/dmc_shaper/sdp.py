"""Cutoff-rate subset selection via semidefinite relaxation.

Selecting the size-k subset that maximizes the cutoff rate is equivalent to
minimizing b^T A b over binary b with exactly k ones, where A is the Gram
matrix of square-root likelihood rows (pairwise confusability). The problem
is lifted with a sign slack variable to a symmetric form, relaxed by dropping
the rank-one constraint, solved by an ADMM splitting between the affine
constraint set and the PSD cone, and rounded back to a subset by Gaussian
sampling from the solution covariance (or by its dominant eigenvector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DmcChannel, SubsetMask
from .mimo import qpsk_rotation
from .rates import cutoff_bits, cutoff_rate

ROUNDING_METHODS = ("randomized", "eigen")

_RHO_INIT = 1.0  # ADMM penalty at the start; residual balancing rescales it
_ALPHA = 1.6  # ADMM over-relaxation


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric unit-diagonal matrix of pairwise row confusability in [0, 1]."""

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("Gram matrix must be symmetric")
        if np.any(a < 0.0) or np.any(a > 1.0):
            raise ValueError("Gram entries must lie in [0, 1]")
        if not np.all(np.diag(a) == 1.0):
            raise ValueError("Gram diagonal must be exactly 1")
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return self.a.shape[0]


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
    method: str = "randomized"

    def __post_init__(self) -> None:
        if not (1 <= self.n_rand <= 10**6):
            raise ValueError("n_rand must be in [1, 10^6]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.method not in ROUNDING_METHODS:
            raise ValueError(f"method must be one of {ROUNDING_METHODS}")


def build_gram(ch: DmcChannel) -> GramMatrix:
    """Pairwise confusability A_ij = sum_y sqrt(P(y|i) P(y|j))."""
    sq = np.sqrt(ch.trans)
    a = sq @ sq.T
    a = np.minimum((a + a.T) / 2.0, 1.0)
    np.fill_diagonal(a, 1.0)
    return GramMatrix(a)


def embed(a: GramMatrix) -> np.ndarray:
    """Zero-bordered (M+1) x (M+1) embedding of the Gram matrix."""
    m = a.m
    b = np.zeros((m + 1, m + 1))
    b[:m, :m] = a.a
    return b


# Orbit coordinates pay off from this M on: on a 2-core x86 box, 300
# iterations on Z4-invariant Gram matrices took 0.14/0.18/0.23/0.32 ms per
# iteration plain and 0.23/0.21/0.21/0.25 orbit-wise at M = 16/24/28/32.
# The QPSK rotation exists only for M = 4^T, so M = 16 stays plain.
_REDUCE_MIN_M = 32
_INVARIANCE_TOL = 1e-12


def _input_orbits(b_mat: np.ndarray) -> np.ndarray:
    """(g, r) array whose row o lists the inputs (o, 0), ..., (o, r-1).

    Input (o, a) is the a-th rotation x -> j^a x of the orbit's first input.
    The rotation is used (r = 4) when M = 4^T reaches ``_REDUCE_MIN_M`` and
    the embedded matrix is invariant under it; otherwise r = 1.
    """
    m = b_mat.shape[0] - 1
    t = round(math.log(m, 4))
    if m < _REDUCE_MIN_M or 4**t != m:
        return np.arange(m)[:, None]
    perm = np.append(qpsk_rotation(t), m)
    if np.abs(b_mat[np.ix_(perm, perm)] - b_mat).max() > _INVARIANCE_TOL:
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


def solve_sdp(b_mat: np.ndarray, k: int, tol: float = 1e-6, max_iter: int = 5000) -> SdpSolution:
    """Minimize tr(B S) over PSD S meeting the subset-lift affine constraints.

    ADMM with over-relaxation: alternate the closed-form affine projection
    and the eigenvalue-clipping PSD projection, carrying a scaled dual. The
    penalty parameter self-tunes by residual balancing. Terminates when both
    the max affine violation of the PSD iterate (plus the splitting gap) and
    the dual step fall below ``tol``.

    When B is invariant under the QPSK input rotation (see ``_input_orbits``)
    every iterate is too, so the loop stores one value per orbit of entries
    and projects three Fourier blocks of size about M/4; the iterates and
    residuals equal the plain loop's up to rounding.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b_mat = np.asarray(b_mat, dtype=np.float64)
    n = b_mat.shape[0]
    m = n - 1
    if b_mat.shape != (n, n) or m < 2:
        raise ValueError("embedded matrix must be (M+1) x (M+1) with M >= 2")
    if not (2 <= k <= m):
        raise ValueError(f"k must be in [2, {m}], got {k}")

    orbits = _input_orbits(b_mat)
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

    rho = _RHO_INIT
    primal = dual = math.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        x = _affine_project(z - u - b_red / rho, k)
        x_hat = _ALPHA * x + (1.0 - _ALPHA) * z
        z_new = _psd_project(x_hat + u)
        u += x_hat - z_new
        primal = max(
            _constraint_violation(z_new, k), float(np.abs(x - z_new).max())
        )
        dual = rho * float(np.abs(z_new - z).max())
        z = z_new
        if max(primal, dual) < tol:
            converged = True
            break
        if iterations % 10 == 0:
            if primal > 10.0 * dual and rho < 1e6:
                rho *= 2.0
                u /= 2.0
            elif dual > 10.0 * primal and rho > 1e-6:
                rho /= 2.0
                u *= 2.0

    s_hat = _expand(z, orbits)
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
    order = np.lexsort((np.arange(m), -s_vec[:m]))
    return np.sort(order[:k])


def round_solution(
    v: np.ndarray,
    k: int,
    b_mat: np.ndarray,
    cfg: RoundingConfig,
) -> tuple[SubsetMask, float]:
    """Recover a k-subset from the factor V of the relaxed solution.

    randomized: draw unit-sphere vectors u (stream per draw index), form
    s = V^T u, and quantize; keep the candidate minimizing b^T A b.
    eigen: quantize the dominant eigenvector of V^T V once.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[1]
    m = n - 1
    a = np.asarray(b_mat, dtype=np.float64)[:m, :m]

    if cfg.method == "eigen":
        _, q = np.linalg.eigh(v.T @ v)
        candidates = [q[:, -1]]
    else:
        candidates = []
        for i in range(cfg.n_rand):
            rng = np.random.default_rng([cfg.rng_seed, i])
            u = rng.standard_normal(n)
            norm = np.linalg.norm(u)
            if norm > 0.0:
                u /= norm
            candidates.append(v.T @ u)

    best_idx: np.ndarray | None = None
    best_obj = math.inf
    for s_vec in candidates:
        chosen = _quantize_top_k(s_vec, k)
        obj = float(a[np.ix_(chosen, chosen)].sum())
        if obj < best_obj:
            best_obj = obj
            best_idx = chosen
    assert best_idx is not None
    return SubsetMask.from_indices(m, best_idx), best_obj


@dataclass(frozen=True)
class SdpSelectResult:
    """Output of the full relaxation pipeline for one channel and k."""

    mask: SubsetMask
    cutoff_rate_bits: float
    rounded_objective: float
    sdp_objective: float
    sdp_bound_bits: float
    solution: SdpSolution


def sdp_select(
    ch: DmcChannel,
    k: int,
    tol: float = 1e-6,
    cfg: RoundingConfig | None = None,
    max_iter: int = 5000,
) -> SdpSelectResult:
    """Gram build, lift, relaxed solve, factorization, and rounding in one call.

    ``sdp_bound_bits`` converts the relaxation objective into the cutoff-rate
    upper bound 2*log2(k) - log2(objective) for context.
    """
    if cfg is None:
        cfg = RoundingConfig()
    b_mat = embed(build_gram(ch))
    sol = solve_sdp(b_mat, k, tol=tol, max_iter=max_iter)
    v = psd_factorize(sol)
    mask, rounded_obj = round_solution(v, k, b_mat, cfg)
    bound = float(cutoff_bits(k, sol.objective)) if sol.objective > 0.0 else math.inf
    return SdpSelectResult(
        mask=mask,
        cutoff_rate_bits=cutoff_rate(ch, mask),
        rounded_objective=rounded_obj,
        sdp_objective=sol.objective,
        sdp_bound_bits=bound,
        solution=sol,
    )
