"""Sparse parity-check codes with an accumulator parity part, encoded by a
running XOR and decoded by sum-product.

A code's parity-check matrix is H = [H1 | T]: the n - m message columns H1
and the m x m lower-bidiagonal accumulator T (ones on the diagonal and just
below it), the structure of IRA codes (Jin, Khandekar & McEliece 2000) and
of the IEEE 802.11n and DVB-S2 codes. T has full rank, so every H has, and
a codeword is the message followed by the parity bits p with p_0 = s_0 and
p_i = p_(i-1) xor s_i, where s = H1 u mod 2 for the message u.
``LdpcCode`` turns H once into slot tables that list each check's and each
variable's edges; the encoder's syndrome, BP's messages and BP's parity
test all read the code from them, so each costs time linear in the edges.
``build_ldpc`` fills H1 column by column with column weight 3, drawing from
the currently lightest check rows and rejecting (up to a retry limit)
placements that would close a length-4 cycle, with T's edges included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import check_bytes, check_integer, check_seed

LLR_CLIP = 40.0
# tanh(LLR_CLIP / 2) rounds to 1.0; clip inside the open interval instead.
_TANH_LIMIT = 1.0 - 1e-15
_COL_WEIGHT = 3  # checks per message bit in ``build_ldpc``
BP_MAX_ITER = 100  # flooding iterations before a frame stops unconverged


def check_bits(bits: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every entry of ``bits`` equals 0 or 1.

    Values are compared, not cast: 1.0 and True pass, while 2, -1, 0.5 and
    NaN do not.
    """
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"{name} must be 0 or 1")


def _accumulator_edges(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each 1 of the m x m accumulator, in row-major order."""
    twice = np.repeat(np.arange(m), 2)
    return twice[1:], twice[:-1]


def _slot_table(owner: np.ndarray, size: int) -> np.ndarray:
    """(most edges of one owner, size) table whose column j lists, in edge
    order, the edges of owner j, padded with the edge count."""
    counts = np.bincount(owner, minlength=size)
    order = np.argsort(owner, kind="stable")
    by_owner = owner[order]
    slot = np.arange(owner.shape[0]) - (np.cumsum(counts) - counts)[by_owner]
    table = np.full((counts.max(), size), owner.shape[0])
    table[slot, by_owner] = order
    return table


@dataclass(eq=False)
class LdpcCode:
    """Parity-check matrix ``h`` = [H1 | T] of a code with an accumulator
    parity part.

    ``h`` must be a 2-D integer array of 0/1 entries with fewer rows m than
    columns n, whose last m columns are the accumulator T and whose columns
    each have an edge; otherwise ``ValueError``. The message is the first
    n - m codeword bits. Codes compare by ``h``.
    """

    h: np.ndarray

    # Edge structure for encoding and decoding, derived once. Edges are
    # numbered in row-major order of h. Slot tables list, per check or per
    # variable, its edges (or variables) in that order, one slot per row of
    # the table, padded with the index one past the end.
    _edge_check: np.ndarray = field(init=False, repr=False)
    _edge_var: np.ndarray = field(init=False, repr=False)
    _row_edges: np.ndarray = field(init=False, repr=False)  # (max row weight, m)
    _row_vars: np.ndarray = field(init=False, repr=False)  # (max row weight, m)
    _col_edges: np.ndarray = field(init=False, repr=False)  # (max column weight, n)

    def __post_init__(self) -> None:
        h = self.h
        if not (
            isinstance(h, np.ndarray)
            and h.ndim == 2
            and np.issubdtype(h.dtype, np.integer)
            and h.shape[0] < h.shape[1]
        ):
            raise ValueError("h must be a 2-D integer array with fewer rows than columns")
        chk, var = np.nonzero(h)
        # Zeros pass, so only the nonzero entries need the 0/1 test.
        check_bits(h[chk, var], "entries of h")
        k = self.message_length
        parity = var >= k
        rows, cols = _accumulator_edges(self.m_checks)
        if not (np.array_equal(chk[parity], rows) and np.array_equal(var[parity] - k, cols)):
            raise ValueError(
                f"the last {self.m_checks} columns of h must be the accumulator: "
                "ones on the diagonal and just below it, zeros elsewhere"
            )
        # A variable without edges is never checked: reject such a matrix
        # here rather than decode with it. T gives every check an edge.
        bare = np.setdiff1d(np.arange(self.n), var)
        if bare.size:
            raise ValueError(f"variable columns {bare.tolist()} have no edges")
        self._row_edges = _slot_table(chk, self.m_checks)
        self._row_vars = np.append(var, self.n)[self._row_edges]
        self._col_edges = _slot_table(var, self.n)
        self._edge_check = chk
        self._edge_var = var

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
        return self.n - self.m_checks

    @property
    def rate(self) -> float:
        return self.message_length / self.n

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Codewords of 0/1 messages along the last axis: (..., k) messages
        give (..., n) uint8 codewords, each its message, then its parity bits.

        Each check's syndrome bit is the XOR of the word bits its
        ``_row_vars`` slots list, read from the message followed by zeros
        (parity and pad slots read 0); the parity bits are their running
        XOR. A 0-d message, a last axis other than k and an entry other than
        0 or 1 are refused with ``ValueError``.
        """
        message = np.asarray(message)
        k = self.message_length
        if message.ndim == 0 or message.shape[-1] != k:
            raise ValueError(f"message must have length {k}, got {message.shape}")
        check_bits(message, "message bits")
        word = np.zeros(message.shape[:-1] + (self.n + 1,), dtype=np.uint8)
        word[..., :k] = message
        syndrome = np.bitwise_xor.reduce(word[..., self._row_vars], axis=-2)
        word[..., k:-1] = np.bitwise_xor.accumulate(syndrome, axis=-1)
        return word[..., :-1]


def _fill_message_columns(h: np.ndarray, k: int, rng: np.random.Generator) -> None:
    """Place ``_COL_WEIGHT`` ones in each of the first k columns of h, whose
    other columns hold the accumulator."""
    m = h.shape[0]
    row_weights = np.zeros(m, dtype=np.int64)
    # Each accumulator column joins two adjacent checks.
    used_pairs: set[tuple[int, int]] = {(r, r + 1) for r in range(m - 1)}
    for col in range(k):
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


def build_ldpc(n: int, rate: float, seed: int = 0) -> LdpcCode:
    """Random code of length n at (nearly) the given rate, with m =
    round(n (1 - rate)) checks: column weight 3 over the n - m message
    columns, then the m x m accumulator.

    The same seed gives the same ``h``. A code whose (m, n) uint8 ``h``
    would take more than the 1 GiB of ``channel.check_bytes`` is refused
    before it is allocated; at rate 1/2 that allows n up to about 46,000.
    """
    check_integer(n, "n")
    n = int(n)  # a numpy integer would overflow in the byte count below
    check_seed(seed, "seed")
    if not (0.0 < rate < 1.0):
        raise ValueError("rate must lie strictly between 0 and 1")
    m = int(round(n * (1.0 - rate)))
    if m < _COL_WEIGHT or m >= n:
        raise ValueError(f"{m} checks for length {n} is not constructible")
    achieved = (n - m) / n
    if abs(achieved - rate) > 1.0 / n:
        raise ValueError(f"achievable rate {achieved} is off the request by > 1/{n}")
    check_bytes(m * n, f"the parity-check matrix of a length-{n} code with {m} checks")
    k = n - m
    h = np.zeros((m, n), dtype=np.uint8)
    rows, cols = _accumulator_edges(m)
    h[rows, k + cols] = 1
    _fill_message_columns(h, k, np.random.default_rng(seed))
    return LdpcCode(h)


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
    # A NaN compares false everywhere: it would decode to bit 0 with a
    # nonzero belief and converge at once. +/-inf is clipped to +/-LLR_CLIP.
    if np.isnan(llrs).any():
        raise ValueError("LLRs must not be NaN")
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
