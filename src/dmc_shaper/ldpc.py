"""Random sparse parity-check codes with systematic encoding and
sum-product decoding.

Construction fills columns one at a time with column weight 3, biased
toward the currently lightest check rows and rejecting (up to a retry limit)
placements that would close a length-4 cycle. ``LdpcCode(h)`` derives the
systematic generator by GF(2) elimination with column pivoting; rank-deficient
draws are retried with a fresh derived seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LLR_CLIP = 40.0
# tanh(LLR_CLIP / 2) rounds to 1.0; clip inside the open interval instead.
_TANH_LIMIT = 1.0 - 1e-15
_COL_WEIGHT = 3  # checks per code bit in ``build_ldpc``
BP_MAX_ITER = 100  # flooding iterations before a frame stops unconverged


@dataclass(eq=False)
class LdpcCode:
    """Parity-check matrix ``h`` with the systematic encoder derived from it.

    ``message_positions`` are the codeword coordinates that carry the message
    verbatim; the rest are parity. ``h`` must have full row rank (else
    ``RankDeficientError``) and no empty row or column. Codes compare by ``h``.
    """

    h: np.ndarray
    generator: np.ndarray = field(init=False)
    message_positions: np.ndarray = field(init=False)

    # Edge structure for message passing, derived once. Edges are numbered
    # in row-major order of h. Slot tables list, per check or per variable,
    # its edges (or variables) in that order, one slot per row of the table,
    # padded with the index one past the end.
    _edge_check: np.ndarray = field(init=False, repr=False)
    _edge_var: np.ndarray = field(init=False, repr=False)
    _row_edges: np.ndarray = field(init=False, repr=False)  # (max row weight, m)
    _row_vars: np.ndarray = field(init=False, repr=False)  # (max row weight, m)
    _col_edges: np.ndarray = field(init=False, repr=False)  # (max column weight, n)
    # The generator as float64: BLAS sums its 0/1 products as exact integers.
    _generator_f: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        chk, var = np.nonzero(self.h)
        counts = np.bincount(chk, minlength=self.m_checks)
        col_counts = np.bincount(var, minlength=self.n)
        # A check without edges constrains nothing and a variable without
        # edges is never checked: reject such a matrix here rather than
        # decode with it.
        if not counts.all():
            raise ValueError(f"check rows {np.flatnonzero(counts == 0).tolist()} have no edges")
        if not col_counts.all():
            raise ValueError(
                f"variable columns {np.flatnonzero(col_counts == 0).tolist()} have no edges"
            )
        self.generator, self.message_positions = _systematic_generator(self.h)
        n_edges = chk.shape[0]
        edges = np.arange(n_edges)
        slot = edges - (np.cumsum(counts) - counts)[chk]
        self._row_edges = np.full((counts.max(), self.m_checks), n_edges)
        self._row_edges[slot, chk] = edges
        self._row_vars = np.full(self._row_edges.shape, self.n)
        self._row_vars[slot, chk] = var
        col_order = np.lexsort((chk, var))
        by_col = var[col_order]
        slot = edges - (np.cumsum(col_counts) - col_counts)[by_col]
        self._col_edges = np.full((col_counts.max(), self.n), n_edges)
        self._col_edges[slot, by_col] = col_order
        self._edge_check = chk
        self._edge_var = var
        self._generator_f = np.asarray(self.generator, dtype=np.float64)

    def __eq__(self, other) -> bool:
        return isinstance(other, LdpcCode) and np.array_equal(self.h, other.h)

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def m_checks(self) -> int:
        return self.h.shape[0]

    @property
    def message_length(self) -> int:
        return self.message_positions.shape[0]

    @property
    def rate(self) -> float:
        return self.message_length / self.n

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.uint8)
        if message.shape != (self.message_length,):
            raise ValueError(
                f"message must have length {self.message_length}, got {message.shape}"
            )
        sums = message.astype(np.float64) @ self._generator_f
        return (sums.astype(np.int64) & 1).astype(np.uint8)


class RankDeficientError(ValueError):
    pass


def _fill_parity_matrix(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    h = np.zeros((m, n), dtype=np.uint8)
    row_weights = np.zeros(m, dtype=np.int64)
    used_pairs: set[tuple[int, int]] = set()
    for col in range(n):
        placed: np.ndarray | None = None
        rows = None
        for attempt in range(200):
            # Draw from the lightest rows; widen the pool as retries mount so
            # collisions near the end of the fill can still be avoided.
            limit = row_weights.min() + 1 + attempt // 20
            pool = np.flatnonzero(row_weights <= limit)
            if pool.size < _COL_WEIGHT:
                continue
            rows = np.sort(rng.choice(pool, size=_COL_WEIGHT, replace=False))
            pairs = [
                (int(rows[i]), int(rows[j]))
                for i in range(_COL_WEIGHT)
                for j in range(i + 1, _COL_WEIGHT)
            ]
            if all(p not in used_pairs for p in pairs):
                placed = rows
                used_pairs.update(pairs)
                break
        if placed is None:
            # 4-cycle avoidance is best effort; fall back to the last draw.
            placed = rows
        h[placed, col] = 1
        row_weights[placed] += 1
    return h


def _systematic_generator(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GF(2) row reduction with column pivoting; raises if h is rank deficient."""
    m, n = h.shape
    work = h.copy()
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        hot = np.nonzero(work[row:, col])[0]
        if hot.size == 0:
            continue
        pivot = row + int(hot[0])
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
        others = np.nonzero(work[:, col])[0]
        others = others[others != row]
        work[others] ^= work[row]
        pivot_cols.append(col)
        row += 1
    if row < m:
        raise RankDeficientError(f"parity matrix rank {row} < {m}")
    piv = np.asarray(pivot_cols, dtype=np.intp)
    msg = np.delete(np.arange(n), piv)
    k = msg.shape[0]
    gen = np.zeros((k, n), dtype=np.uint8)
    gen[np.arange(k), msg] = 1
    gen[:, piv] = work[:, msg].T
    return gen, msg


def build_ldpc(n: int, rate: float, seed: int = 0) -> LdpcCode:
    """Random column-weight-3 code of length n at (nearly) the given rate."""
    if not (0.0 < rate < 1.0):
        raise ValueError("rate must lie strictly between 0 and 1")
    m = int(round(n * (1.0 - rate)))
    if m < _COL_WEIGHT or m >= n:
        raise ValueError(f"{m} checks for length {n} is not constructible")
    achieved = (n - m) / n
    if abs(achieved - rate) > 1.0 / n:
        raise ValueError(f"achievable rate {achieved} is off the request by > 1/{n}")
    last_error: Exception | None = None
    for attempt in range(10):
        rng = np.random.default_rng([seed, attempt])
        h = _fill_parity_matrix(n, m, rng)
        if int(h.sum(axis=1).min()) < 2:
            last_error = ValueError("a check row ended up with weight < 2")
            continue
        try:
            return LdpcCode(h)
        except RankDeficientError as exc:
            last_error = exc
    raise ValueError(f"no usable parity matrix after 10 attempts: {last_error}")


@dataclass(frozen=True)
class BpResult:
    bits: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class BpBatchResult:
    """Per-frame outcome of ``bp_decode_batch``, one row or entry per frame."""

    bits: np.ndarray  # (B, n) uint8
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int64


def bp_decode(code: LdpcCode, llrs: np.ndarray) -> BpResult:
    """Flooding sum-product decoding of one frame of bit-1 log-odds.

    The one-frame view of ``bp_decode_batch``, which documents the schedule
    and the convergence rule.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (code.n,):
        raise ValueError(f"need {code.n} LLRs, got {llrs.shape}")
    res = bp_decode_batch(code, llrs[None, :])
    return BpResult(
        bits=res.bits[0], converged=bool(res.converged[0]), iterations=int(res.iterations[0])
    )


def bp_decode_batch(code: LdpcCode, llrs: np.ndarray) -> BpBatchResult:
    """Flooding sum-product decoding of a (B, n) array of bit-1 log-odds.

    Each row is one frame. A frame converges when every parity check is
    satisfied and every belief is nonzero (exact-zero beliefs leave the hard
    decision arbitrary, so they never count as converged); it then leaves the
    working arrays, so later iterations only cost the frames still failing.
    Every operation is elementwise or within one frame, so each row's bits,
    ``converged`` and ``iterations`` equal those of decoding it alone.

    A check's product runs over its edges in order, and a variable's
    incoming sum is its first edge plus the sum of the others: the
    associations of ``np.multiply.reduceat`` and ``np.add.reduceat`` over
    edge segments, whose results these match bit for bit.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise ValueError(f"need (frames, {code.n}) LLRs, got {llrs.shape}")
    n = code.n
    n_edges = code._edge_check.shape[0]
    chk = code._edge_check
    var = code._edge_var

    # Working arrays hold one column per frame still decoding, so slot-table
    # gathers copy contiguous rows. Log(P0/P1) orientation throughout.
    lam = -llrs.T
    bits = (llrs > 0.0).astype(np.uint8)
    converged = np.zeros(llrs.shape[0], dtype=bool)
    iterations = np.full(llrs.shape[0], BP_MAX_ITER, dtype=np.int64)
    live = np.arange(llrs.shape[0])  # batch row of each working column
    var_to_chk = lam[var]
    for iteration in range(1, BP_MAX_ITER + 1):
        frames = live.shape[0]
        # Edge arrays end in a pad row: 1 under products, 0 under sums.
        t = np.empty((n_edges + 1, frames))
        t[-1] = 1.0
        edge_t = t[:-1]
        np.clip(var_to_chk, -LLR_CLIP, LLR_CLIP, out=edge_t)
        edge_t *= 0.5
        np.tanh(edge_t, out=edge_t)
        zero = t == 0.0
        has_zero = zero.any()
        if has_zero:
            t[zero] = 1.0
        prod = np.multiply.reduce(t[code._row_edges], axis=0)
        excl = prod[chk]
        excl /= edge_t
        if has_zero:
            z_edge = zero[code._row_edges].sum(axis=0)[chk]
            excl = np.where(
                z_edge == 0,
                excl,
                np.where((z_edge == 1) & zero[:-1], prod[chk], 0.0),
            )
        chk_to_var = np.empty((n_edges + 1, frames))
        chk_to_var[-1] = 0.0
        edge_c = chk_to_var[:-1]
        np.clip(excl, -_TANH_LIMIT, _TANH_LIMIT, out=edge_c)
        np.arctanh(edge_c, out=edge_c)
        edge_c *= 2.0

        slots = chk_to_var[code._col_edges]
        total = lam + (slots[0] + np.add.reduce(slots[1:], axis=0))
        hard = np.zeros((n + 1, frames), dtype=np.uint8)
        np.less(total, 0.0, out=hard[:-1], casting="unsafe")
        bits[live] = hard[:-1].T
        unsatisfied = np.bitwise_xor.reduce(hard[code._row_vars], axis=0).any(axis=0)
        done = ~unsatisfied & (total != 0.0).all(axis=0)
        if done.any():
            converged[live[done]] = True
            iterations[live[done]] = iteration
            keep = ~done
            if not keep.any():
                break
            live, lam, total, edge_c = live[keep], lam[:, keep], total[:, keep], edge_c[:, keep]
        var_to_chk = total[var] - edge_c

    return BpBatchResult(bits=bits, converged=converged, iterations=iterations)
