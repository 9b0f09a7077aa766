"""Cutoff-rate subset selection via semidefinite relaxation.

Selecting the size-k subset that maximizes the cutoff rate is equivalent to
minimizing b^T A b over binary b with exactly k ones, where A is the Gram
matrix of square-root likelihood rows (pairwise confusability). The problem
is lifted with a sign slack variable to a symmetric form, relaxed by dropping
the rank-one constraint, solved by a primal-dual interior-point method, and
rounded back to a subset: Gaussian draws from the solution covariance plus
its dominant eigenvector are each quantized to their top k entries, and the
best is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DmcChannel, SubsetMask
from .mimo import qpsk_rotation
from .rates import check_stopping_rule, cutoff_bits, cutoff_rate

# The dual start is Z = B + tau I. With tau from 0.1 to 10 the desk and
# bundled-H sweep solves took within 13% of the same iteration totals.
_TAU = 1.0


@dataclass(frozen=True)
class SdpSolution:
    """Primal iterate of the relaxed program with solver diagnostics.

    ``s_hat`` is PSD (positive definite unless k = M); the affine
    constraints hold up to ``primal_residual``. ``lower_bound`` is a
    certified lower bound on the relaxation's optimum, so on b^T A b for
    every k-subset.
    """

    s_hat: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool
    lower_bound: float


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


# The Fourier blocks pay off from this M on: on a 2-core x86 box, the
# interior-point loop took 0.43-0.51 ms per iteration plain and 0.60-0.72
# ms on the Fourier blocks at M = 16 (the 50 desk solves), 2.7-3.8 against
# 1.1-1.3 ms at M = 64 and 43-46 against 9.8-10.3 ms at M = 256, in the same
# number of iterations. The QPSK rotation exists only for M = 4^T, so
# M = 16 stays plain.
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


_WEIGHTS = (1.0, 1.0, 2.0)  # block 1 also stands for its conjugate, block 3


def _to_blocks(mat: np.ndarray, orbits: np.ndarray) -> list[np.ndarray]:
    """Fourier blocks of an invariant (M+1) x (M+1) matrix; it is PSD iff they are.

    With input (o, a) the a-th member of orbit o, the matrix is fixed by
    c[d][o, o'] = S[(o, a), (o', a + d)], the border s[o] = S[(o, a), M] and
    the corner t = S[M, M]. A length-4 DFT over d block-diagonalizes it:
    frequency 0 is the real block sum_d c[d] bordered by 2s and t,
    frequency 2 the real block sum_d (-1)^d c[d], frequency 1 the Hermitian
    block (c[0] - c[2]) + j (c[1] - c[3]), and frequency 3 its conjugate,
    which block 1's weight in ``_WEIGHTS`` stands for. Frobenius products of
    full matrices are the weighted sums of block products. With r = 1 the
    one block is the matrix itself.
    """
    g, r = orbits.shape
    if r == 1:
        return [mat]
    c = [mat[np.ix_(orbits[:, 0], orbits[:, d])] for d in range(r)]
    rows = np.append(orbits[:, 0], g * r)
    f0 = mat[np.ix_(rows, rows)]
    f0[:g, :g] = c[0] + c[1] + c[2] + c[3]
    f0[:g, g] *= 2.0
    f0[g, :g] *= 2.0
    return [f0, c[0] - c[1] + c[2] - c[3], (c[0] - c[2]) + 1j * (c[1] - c[3])]


def _to_full(blocks: list[np.ndarray], orbits: np.ndarray) -> np.ndarray:
    """Inverse of ``_to_blocks``: the full matrix in the original input order."""
    g, r = orbits.shape
    if r == 1:
        return blocks[0]
    p0, p2, p1 = blocks
    even = (p0[:g, :g] + p2) / 4.0
    odd = (p0[:g, :g] - p2) / 4.0
    re = p1.real / 2.0
    im = p1.imag / 2.0
    c = [even + re, odd + im, even - re, odd - im]
    m = g * r
    out = np.empty((m + 1, m + 1))
    for a in range(r):
        for d in range(r):
            out[np.ix_(orbits[:, a], orbits[:, (a + d) % r])] = c[d]
        out[orbits[:, a], m] = p0[:g, g] / 2.0
        out[m, orbits[:, a]] = p0[g, :g] / 2.0
    out[m, m] = p0[g, g]
    return out


def _dot(xs: list[np.ndarray], zs: list[np.ndarray]) -> float:
    """Weighted Frobenius product of block lists (elementwise, so its bits
    do not depend on the BLAS thread count)."""
    return sum(w * float((x * z.conj()).real.sum()) for x, z, w in zip(xs, zs, _WEIGHTS))


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _constraints(xs: list[np.ndarray], rt: float) -> np.ndarray:
    """A(X), the g + 2 affine constraint values of block-diagonal X.

    Value o < g is the sum of S_ii - S_in over the inputs i of orbit o,
    value g the corner S_nn and value g + 1 the border sum
    sum_i S_in + S_nn; rt = sqrt(r). Only the Hermitian part of each block
    is read.
    """
    x0 = xs[0]
    g = x0.shape[0] - 1
    border = (x0[:g, g] + x0[g, :g]) / 2.0
    diag = np.diagonal(x0)[:g] - rt * border
    for x, w in zip(xs[1:], _WEIGHTS[1:]):
        diag = diag + w * np.diagonal(x).real
    return np.concatenate((diag, [x0[g, g], rt * border.sum() + x0[g, g]]))


def _adjoint(y: np.ndarray, blocks: int, rt: float) -> list[np.ndarray]:
    """A*(y) = sum_p y_p A_p, the adjoint of ``_constraints``, per block."""
    g = y.size - 2
    z0 = np.diag(np.append(y[:g], y[g] + y[g + 1]))
    z0[:g, g] = z0[g, :g] = rt / 2.0 * (y[g + 1] - y[:g])
    return [z0] + [np.diag(y[:g])] * (blocks - 1)


def _schur(xs: list[np.ndarray], ws: list[np.ndarray], rt: float) -> np.ndarray:
    """HKM Schur complement H_pq = <A_p, X A_q W> in closed form.

    On block 0 every A_p is sym(e_i v_p^T) for column p of ``v`` and
    i = ``idx[p]``, and tr(sym(a b^T) X sym(c d^T) W) is a sum of four
    products of bilinear forms, so H is a sum of Hadamard products of
    (g+2) x (g+2) matrices. On the other blocks A_p = E_pp for p < g and
    H_pq = Re(X_pq W_qp).
    """
    x0, w0 = xs[0], ws[0]
    n = x0.shape[0]
    g = n - 1
    idx = np.append(np.arange(n), g)
    v = np.eye(n, g + 2)
    v[g, :g] = -rt
    v[:g, g + 1] = rt
    v[g, g + 1] = 1.0
    xv, wv = x0 @ v, w0 @ v
    t = xv[idx].T * wv[idx]
    h = (t + t.T + (v.T @ xv) * w0[np.ix_(idx, idx)] + x0[np.ix_(idx, idx)] * (v.T @ wv)) / 4.0
    for x, w, weight in zip(xs[1:], ws[1:], _WEIGHTS[1:]):
        h[:g, :g] += weight * (x * w.T).real
    return h


def _decompose(xs: list[np.ndarray], zs: list[np.ndarray]):
    """(Z^-1, X^(-1/2), Z^(-1/2)) per block; None unless X and Z are positive definite."""
    ws, x_isq, z_isq = [], [], []
    for x, z in zip(xs, zs):
        lx, qx = np.linalg.eigh(x)
        lz, qz = np.linalg.eigh(z)
        if not (lx[0] > 0.0 and lz[0] > 0.0):
            return None
        ws.append((qz / lz) @ qz.conj().T)
        x_isq.append((qx / np.sqrt(lx)) @ qx.conj().T)
        z_isq.append((qz / np.sqrt(lz)) @ qz.conj().T)
    return ws, x_isq, z_isq


def _max_step(inv_sqrt: list[np.ndarray], dx: list[np.ndarray]) -> float:
    """Largest t with X + t dX PSD, given X^(-1/2) (inf if every t is)."""
    low = min(float(np.linalg.eigvalsh(q @ d @ q)[0]) for q, d in zip(inv_sqrt, dx))
    return -1.0 / low if low < 0.0 else math.inf


def solve_sdp(a: np.ndarray, k: int, tol: float = 1e-6, max_iter: int = 5000) -> SdpSolution:
    """Minimize tr(B S) over PSD S meeting the subset-lift affine constraints.

    B is the M x M Gram matrix ``a`` (from ``build_gram``) bordered by a zero
    row and column for the slack entry, so S and B are (M+1) x (M+1).

    Primal-dual path following (Helmberg, Rendl, Vanderbei & Wolkowicz
    1996): HKM direction, Mehrotra predictor-corrector, and the step and
    centering rules of SDPT3 (Toh, Todd & Tutuncu 1999). It starts from a
    strictly feasible pair and stops once the affine violations of X and of
    the dual slack Z = B - A*(y), and the gap <X, Z> relative to
    1 + |tr(B X)|, are all below ``tol``. Every iterate X is positive
    definite and ``s_hat`` is the last one.

    ``lower_bound`` is b^T y + (k+1) min(0, lambda_min(B - A*(y))): every
    feasible S has trace k + 1, so none has a lower objective.

    When A is invariant under the QPSK input rotation (see ``_input_orbits``)
    so is the central path, and the loop works on the three Fourier blocks
    of ``_to_blocks``, of size about M/4; the iterates equal the plain
    loop's up to rounding.
    """
    check_stopping_rule(tol, max_iter)
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    if a.shape != (m, m) or m < 2:
        raise ValueError("Gram matrix must be M x M with M >= 2")
    if not (2 <= k <= m):
        raise ValueError(f"k must be in [2, {m}], got {k}")

    b_mat = np.pad(a, (0, 1))
    if k == m:
        # The all-ones lift is the only feasible point: there is no interior.
        s_hat = np.ones((m + 1, m + 1))
        obj = float((b_mat * s_hat).sum())
        return SdpSolution(s_hat, obj, 0.0, 0.0, 0, True, obj)

    orbits = _input_orbits(a)
    g, r = orbits.shape
    rt = math.sqrt(r)
    bs = _to_blocks(b_mat, orbits)
    nb = len(bs)
    rhs = np.zeros(g + 2)
    rhs[g:] = 1.0, k + 1.0

    # X: the covariance of a uniformly random k-subset lift, which is
    # singular, moved inside the cone along 11^T - I on the input block.
    off = k * (k - 1) / (m * (m - 1))
    eps = 0.5 * k * (m - k) / (m * (m - 1))
    s0 = np.full((m + 1, m + 1), off + eps)
    np.fill_diagonal(s0, k / m)
    s0[m, :] = s0[:, m] = k / m
    s0[m, m] = 1.0
    xs = _to_blocks(s0, orbits)
    # (y, Z) = (-tau on every multiplier but the corner's, B + tau I).
    y = np.full(g + 2, -_TAU)
    y[g] = 0.0
    zs = [b + _TAU * np.eye(b.shape[0]) for b in bs]

    n = m + 1  # sum of the weighted block sizes
    dec = _decompose(xs, zs)
    iterations = 0
    while True:
        pobj = _dot(bs, xs)
        rp = rhs - _constraints(xs, rt)
        primal = float(np.abs(rp).max())
        rd = [b - z - az for b, z, az in zip(bs, zs, _adjoint(y, nb, rt))]
        dual = max(float(np.abs(d).max()) for d in rd)
        gap = _dot(xs, zs)
        converged = max(primal, dual, gap / (1.0 + abs(pobj))) < tol
        if converged or iterations == max_iter or dec is None:
            break
        ws, x_isq, z_isq = dec
        mu = gap / n
        h = _schur(xs, ws, rt)
        xrw = [x @ d @ w for x, d, w in zip(xs, rd, ws)]

        def direction(target, extra):
            # dX = herm(target W - X - X dZ W - extra), with A(dX) = rp.
            gs = [target * w - x - t - e for x, w, t, e in zip(xs, ws, xrw, extra)]
            dy = np.linalg.solve(h, rp - _constraints(gs, rt))
            ady = _adjoint(dy, nb, rt)
            dz = [d - az for d, az in zip(rd, ady)]
            dx = [_herm(gb + x @ az @ w) for gb, x, az, w in zip(gs, xs, ady, ws)]
            return dx, dy, dz

        dx, dy, dz = direction(0.0, [0.0] * nb)
        step_p = min(1.0, _max_step(x_isq, dx))
        step_d = min(1.0, _max_step(z_isq, dz))
        mu_aff = _dot(
            [x + step_p * d for x, d in zip(xs, dx)], [z + step_d * d for z, d in zip(zs, dz)]
        ) / n
        expon = 3.0 if min(step_p, step_d) >= 1.0 / math.sqrt(3.0) else 2.0
        sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** expon)
        gamma = 0.9 + 0.09 * min(step_p, step_d)
        dx, dy, dz = direction(sigma * mu, [p @ q @ w for p, q, w in zip(dx, dz, ws)])
        step_p = min(1.0, gamma * _max_step(x_isq, dx))
        step_d = min(1.0, gamma * _max_step(z_isq, dz))
        new_xs = [x + step_p * d for x, d in zip(xs, dx)]
        new_zs = [z + step_d * d for z, d in zip(zs, dz)]
        dec = _decompose(new_xs, new_zs)
        if dec is not None:  # else rounding has reached the boundary
            xs, zs, y = new_xs, new_zs, y + step_d * dy
            iterations += 1

    lam = min(float(np.linalg.eigvalsh(b - az)[0]) for b, az in zip(bs, _adjoint(y, nb, rt)))
    s_hat = _to_full(xs, orbits)
    return SdpSolution(
        s_hat=s_hat,
        objective=float((b_mat * s_hat).sum()),
        primal_residual=primal,
        dual_residual=dual,
        iterations=iterations,
        converged=converged,
        lower_bound=float(rhs @ y) + (k + 1) * min(0.0, lam),
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
    if not (2 <= k <= m):
        raise ValueError(f"k must be in [2, {m}], got {k}")

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
    log2(lower_bound) that its certified lower bound gives (inf unless that
    bound is positive).
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
        low = self.solution.lower_bound
        return float(cutoff_bits(self.mask.k, low)) if low > 0.0 else math.inf


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
