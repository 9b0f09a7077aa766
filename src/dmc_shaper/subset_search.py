"""Input-subset selection by symbol-switching local search and by
exhaustive enumeration.

The local search (binary switching) targets the ML symbol error rate: it
repeatedly replaces the selected symbol with the highest misdetection cost by
the outside candidate that lowers the total SER the most, falling back to the
next-costliest symbol when no improving swap exists.

Exhaustive search is exact branch and bound, level by level over the
d-prefixes P of the K-subsets (d = 1 .. K, lexicographic order, each with
room for K - d larger inputs); depth K is the leaf level, the K-subsets
themselves. A child's column aggregate is its parent's folded with one more
row, and it bounds every completion S of P, with r = K - d rows still to add
and w = d/K: rate I(S) <= h_b(w) + w I(P) + (1 - w) log2 r (a genie tells
whether X lies in P), SER(S) >= w SER(P) + r (1 - max_x sum_y P(y|x)) / K,
and Bhattacharyya sum B(S) >= B(P) + r min_x sum_y P(y|x); at r = 0 each
bound is the subset's value. The incumbent is a short dive from depth
min(2, K-1), polished by single swaps; every depth from there keeps only the
nodes whose bound reaches it (less a 1e-9 margin for rounding). The leaves
are scored in lexicographic order with the same arithmetic as scoring every
subset, so the first best leaf and its value's bits are those of the full
enumeration, whose ties go to the lexicographically smallest subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .channel import DmcChannel, SubsetMask
from .rates import cutoff_rate, ser_ml, uniform_subset_rate

EXHAUSTIVE_GUARD = 10**7
_MAX_PASSES = 1000  # switching passes per restart before the search is cut

CRITERIA = tuple(rates._COLUMN_SCORERS)  # SER is minimized, the two rates maximized
# Float64 entries (512 kB) in one (subsets, L) working array of exhaustive
# search. On a 2-core x86 VM, 2^16 ran 10-20% faster than 2^15, 2^17 or 2^18
# at M = 64, K = 4, and within 10% of the best of them at M = 256, K = 3.
_CHUNK_ENTRIES = 2**16
# Exhaustive search dives for its incumbent with this many best-bounded nodes
# per depth.
_INCUMBENT_PREFIXES = 16
# Slack on a prefix bound, in the criterion's units: it covers the rounding
# of a bound and of a value (about 1e-15 each), so no tie is pruned.
_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class BsaConfig:
    k: int
    restarts: int = 20
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class BsaResult:
    """Best mask over all restarts, with per-restart diagnostics."""

    mask: SubsetMask
    ser: float
    truncated: bool
    initial_sers: tuple[float, ...]
    final_sers: tuple[float, ...]


def check_bsa_size(m: int, k: int) -> None:
    """Raise ValueError unless switching search can pick k of m inputs."""
    if m < 3:
        raise ValueError(f"binary switching needs at least 3 inputs, got {m}")
    if not (2 <= k < m):
        raise ValueError(f"k must be in [2, {m - 1}], got {k}")


def check_exhaustive_size(m: int, k: int) -> None:
    """Raise ValueError unless exhaustive search over C(m, k) subsets is allowed."""
    if not (2 <= k <= m):
        raise ValueError(f"k must be in [2, {m}], got {k}")
    n_subsets = math.comb(m, k)
    if n_subsets > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"C({m},{k}) = {n_subsets} subsets exceeds the guard {EXHAUSTIVE_GUARD}"
        )


def _local_search(
    ch: DmcChannel, inside: np.ndarray, cur: float
) -> tuple[np.ndarray, float, bool]:
    """Run switching passes on the membership vector ``inside``, whose subset
    has SER ``cur``, until no swap improves, or ``_MAX_PASSES`` passes have
    run (reported as truncated). Updates ``inside`` in place."""
    rows, fold, finish, _ = rates._ser_parts(ch)
    passes = 0
    while True:
        sel, outside = np.flatnonzero(inside), np.flatnonzero(~inside)
        owner, best, second, costs = rates._column_state(ch, sel)
        # A swap ends the pass, so the candidates' rows are fixed within it.
        candidates = rows[outside]
        # Highest cost first; position index breaks ties (sel is ascending).
        for j in np.lexsort((np.arange(sel.size), -costs)):
            sers = finish(sel.size, fold(np.where(owner == j, second, best), candidates), None)
            c = int(sers.argmin())
            if sers[c] < cur:
                inside[sel[j]] = False
                inside[outside[c]] = True
                cur = float(sers[c])
                break
        else:
            return sel, cur, False
        passes += 1
        if passes >= _MAX_PASSES:
            return np.flatnonzero(inside), cur, True


def bsa_select(ch: DmcChannel, cfg: BsaConfig) -> BsaResult:
    """Binary switching search for the minimum-SER subset of size k.

    Each restart draws a fresh uniform random subset from its own RNG stream
    (seed, restart index) and descends to a local optimum; the best local
    optimum over all restarts wins.
    """
    m = ch.num_inputs
    check_bsa_size(m, cfg.k)
    best_sel: np.ndarray | None = None
    best_ser = math.inf
    truncated = False
    initial: list[float] = []
    final: list[float] = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.rng_seed, restart])
        inside = np.zeros(m, dtype=bool)
        inside[rng.choice(m, size=cfg.k, replace=False)] = True
        initial.append(float(rates.batch_ser(ch, np.flatnonzero(inside))))
        sel, ser, trunc = _local_search(ch, inside, initial[-1])
        final.append(ser)
        truncated = truncated or trunc
        if ser < best_ser:
            best_ser = ser
            best_sel = sel
    assert best_sel is not None
    return BsaResult(
        mask=SubsetMask.from_indices(m, best_sel),
        ser=best_ser,
        truncated=truncated,
        initial_sers=tuple(initial),
        final_sers=tuple(final),
    )


def _nodes(parts, criterion: str, m: int, k: int, nodes: np.ndarray, floor: float, n_sub: int):
    """The children of the d-prefix rows of ``nodes`` whose bound reaches
    ``floor``, and their bounds. A child appends one index j > P[-1] that
    leaves room for the k - d - 1 larger inputs still to come; children come
    in lexicographic order, built and bounded for chunks of parents with
    about ``n_sub`` children at a time. At depth k a child is a k-subset and
    its bound is its value; each chunk keeps only its first best one."""
    rows, fold, _, term = parts
    d = nodes.shape[1]
    last = nodes[:, -1].astype(np.intp) if d else np.full(1, -1)
    counts = m - k + d - last
    ends = np.cumsum(counts)
    kept_nodes, kept_bounds = [], []
    a = 0
    while a < nodes.shape[0]:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] + n_sub, side="right")))
        pref = nodes[a:b]
        # numpy folds rows one after another, so this is fold.reduce's aggregate;
        # the empty prefix's is 0, which either fold leaves each (>= 0) row as is.
        agg = rows[pref[:, 0]] if d else np.zeros((1, rows.shape[1]))
        for i in range(1, d):
            agg = fold(agg, rows[pref[:, i]])
        # Row-major order of the (parent, j) grid: parent by parent, j ascending.
        owner, after = np.nonzero(np.arange(m - k + d + 1) > last[a:b, None])
        children = np.column_stack((pref[owner], after.astype(nodes.dtype)))
        col = agg[owner]
        fold(col, rows[after], out=col)
        # Summing each child's whole row of terms has the bits of rates._score.
        row_sum = None if term is None else term[children].sum(axis=-1)
        bound = _bounds(parts, criterion, k, d + 1, col, row_sum)
        keep = bound >= floor if d + 1 < k else np.arange(bound.size) == bound.argmax()
        kept_nodes.append(children[keep])
        kept_bounds.append(bound[keep])
        a = b
    return np.concatenate(kept_nodes), np.concatenate(kept_bounds)


def _bounds(parts, criterion: str, k: int, d: int, col: np.ndarray, row_sum) -> np.ndarray:
    """Upper bound on sign * value (sign -1 for SER) over every k-subset S
    that extends a d-prefix P, from P's column aggregate ``col`` (and row-term
    sum), with r = k - d inputs to add and P's share w = d / k. At d = k each
    form reduces to sign * value with its bits."""
    rows, _, finish, _ = parts
    r, w = k - d, d / k
    if criterion == "cutoff":
        # B(S) >= B(P) + sum over the r added rows of sum_y P(y|x): cross terms are >= 0.
        return rates.cutoff_bits(k, (col * col).sum(axis=-1) + r * (rows * rows).sum(axis=1).min())
    value = finish(d, col, row_sum)
    if criterion == "rate":
        if r == 0:  # the genie term would take log2 0
            return value
        # A genie that tells Y whether X lies in P: I(S) <= h_b(w) + w I(P) + (1 - w) log2 r.
        h_b = -w * math.log2(w) - (1.0 - w) * math.log2(1.0 - w)
        return h_b + w * value + (1.0 - w) * math.log2(r)
    # Each added row adds at most its mass (1 up to rounding) to the column
    # maxima: SER(S) >= w SER(P) + r (1 - max mass) / k.
    return -(w * value + r * (1.0 - rows.sum(axis=1).max()) / k)


def _swap_descent(ch: DmcChannel, sel: np.ndarray, criterion: str) -> tuple[np.ndarray, float]:
    """Best-improvement single-swap descent from the ascending subset ``sel``.
    Each step scores all k (m - k) swaps as sorted rows in one stack, takes
    the best (ties to the lowest position, then the lowest candidate) and
    stops when none is strictly better. Returns the subset and its value."""
    parts = rates._COLUMN_SCORERS[criterion](ch)
    sign = -1.0 if criterion == "ser" else 1.0
    sel = np.asarray(sel, dtype=np.intp)
    k, n = sel.size, ch.num_inputs - sel.size
    # Swap t puts the (t % n)-th outside input at position t // n.
    pos, cand = np.divmod(np.arange(k * n), n)
    cur = sign * float(rates._score(parts, sel))
    while n:
        outside = np.delete(np.arange(ch.num_inputs), sel)
        swaps = np.where(np.arange(k) == pos[:, None], outside[cand, None], sel)
        swaps.sort(axis=1)
        vals = sign * rates._score(parts, swaps)
        i = int(vals.argmax())
        if not vals[i] > cur:
            break
        sel, cur = swaps[i], float(vals[i])
    return sel, sign * cur


def exhaustive_select(
    ch: DmcChannel, k: int, criterion: str
) -> tuple[SubsetMask, float]:
    """Globally optimal k-subset under 'rate', 'ser', or 'cutoff'.

    Rate and cutoff rate are maximized, SER is minimized. Ties resolve to the
    lexicographically smallest subset (enumeration order). Guarded to at most
    10^7 candidate subsets.

    Level-by-level branch and bound over the d-prefixes of the k-subsets,
    d = 1 .. k (``_nodes``, ``_bounds``); depth k holds the subsets
    themselves, bounded by their values. The incumbent comes at depth
    min(2, k-1): the ``_INCUMBENT_PREFIXES`` best-bounded nodes, descended
    keeping that many best-bounded nodes per depth, give the best subset
    below them, which ``_swap_descent`` then polishes. From that depth on, a
    node is kept only if its bound is at least the incumbent minus
    ``_BOUND_MARGIN``, which covers every optimal subset and every tie. The
    leaves are scored in lexicographic order with the scorer's fold, so the
    first best is the smallest optimum and its value has the bits of the
    matching ``rates.batch_*`` call.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    m = ch.num_inputs
    check_exhaustive_size(m, k)
    parts = rates._COLUMN_SCORERS[criterion](ch)
    # Negation is exact, so maximizing sign * value keeps the values' bits.
    sign = -1.0 if criterion == "ser" else 1.0
    n_sub = max(1, _CHUNK_ENTRIES // ch.num_outputs)

    def top(nodes: np.ndarray, bound: np.ndarray) -> np.ndarray:
        rest = max(0, bound.size - _INCUMBENT_PREFIXES)
        return nodes[np.argpartition(bound, rest)[rest:]]

    first = min(2, k - 1)  # the first depth that is pruned
    nodes = np.empty((1, 0), np.min_scalar_type(m - 1))
    floor = -math.inf
    for d in range(1, k + 1):
        nodes, bound = _nodes(parts, criterion, m, k, nodes, floor, n_sub)
        if d == first:
            dive = top(nodes, bound)
            for _ in range(first + 1, k):
                dive = top(*_nodes(parts, criterion, m, k, dive, -math.inf, n_sub))
            leaves, value = _nodes(parts, criterion, m, k, dive, -math.inf, n_sub)
            floor = sign * _swap_descent(ch, leaves[value.argmax()], criterion)[1] - _BOUND_MARGIN
            nodes = nodes[bound >= floor]
    best = int(bound.argmax())
    return SubsetMask.from_indices(m, nodes[best]), sign * float(bound[best])


def evaluate_mask(ch: DmcChannel, mask: SubsetMask) -> dict[str, float]:
    """Rate, cutoff rate, and SER of one subset, as a plain dict."""
    return {
        "rate": uniform_subset_rate(ch, mask),
        "cutoff": cutoff_rate(ch, mask),
        "ser": ser_ml(ch, mask),
    }
