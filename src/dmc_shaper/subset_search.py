"""Input-subset selection by symbol-switching local search and by
exhaustive enumeration.

The local search (binary switching) targets the ML symbol error rate: it
repeatedly replaces the selected symbol with the highest misdetection cost by
the outside candidate that lowers the total SER the most, falling back to the
next-costliest symbol when no improving swap exists.

Exhaustive search is exact branch and bound over the (K-1)-prefixes of the
K-subsets. Each prefix P's column aggregate bounds every completion S = P + j:
rate I(S) <= log2 K - ((K-1)/K) (log2(K-1) - I(P)) (a genie tells whether X
lies in P), SER(S) >= ((K-1)/K) SER(P), and Bhattacharyya sum
B(S) >= B(P) + min_x sum_y P(y|x). Only prefixes whose bound reaches a real
subset's value (less a 1e-9 margin for rounding) are scored, in lexicographic
order and with the same arithmetic as scoring every subset, so the optimum,
its ties and its bits are those of the full enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .channel import DmcChannel, SubsetMask
from .rates import cutoff_rate, ser_ml, uniform_subset_rate

EXHAUSTIVE_GUARD = 10**7
_MAX_PASSES = 1000  # switching passes per restart before the search is cut

CRITERIA = tuple(rates._COLUMN_SCORERS)  # SER is minimized, the two rates maximized
# Float64 entries (2 MB) in one (subsets, L) working array of exhaustive
# search. On a 2-core x86 VM, 2^18 ran faster than 2^16 or 2^20 at M = 64
# and M = 256.
_CHUNK_ENTRIES = 2**18
# Exhaustive search takes its incumbent from the completions of this many
# prefixes with the best bounds.
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


def _prefixes(m: int, k: int) -> np.ndarray:
    """The (k-1)-prefixes of the k-subsets of range(m), one row each in
    lexicographic order and the smallest integer dtype that holds m - 1:
    every k-subset is a prefix plus one larger index."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m - 1), k - 1))
    n = math.comb(m - 1, k - 1)
    return np.fromiter(flat, np.min_scalar_type(m - 1), count=n * (k - 1)).reshape(n, k - 1)


def _prefix_bounds(parts, criterion: str, k: int, pref: np.ndarray) -> np.ndarray:
    """Upper bound on sign * value (sign -1 for SER) over every k-subset that
    extends each (k-1)-prefix row P of ``pref`` by one input j."""
    rows, fold, finish, term = parts
    col = fold.reduce(rows[pref], axis=-2)
    if criterion == "cutoff":
        # B(S) = B(P) + 2 sum_y c(y) sqrt(P(y|j)) + sum_y P(y|j), the middle term >= 0.
        return rates.cutoff_bits(k, (col * col).sum(axis=-1) + (rows * rows).sum(axis=1).min())
    value = finish(k - 1, col, None if term is None else term[pref].sum(axis=-1))
    w = (k - 1) / k
    if criterion == "rate":
        # A genie that tells Y whether X lies in P: I(S) <= H(1[X in P]) + w I(P).
        return math.log2(k) - w * (math.log2(k - 1) - value)
    # Row j adds at most its mass (1 up to rounding) to the column maxima:
    # SER(S) >= w SER(P) + (1 - mass) / k.
    return -(w * value + (1.0 - rows.sum(axis=1).max()) / k)


def _scan(parts, sign: float, m: int, k: int, prefixes: np.ndarray, n_sub: int):
    """Best sign * value over every completion j > prefix[-1] of each row of
    ``prefixes``, and its subset: the first visited among equals, so the
    lexicographically smallest when the rows are in lexicographic order."""
    rows, fold, finish, term = parts
    best_val = -math.inf
    best_combo: np.ndarray | None = None
    # A prefix has at most m - k + 1 completions and k - 1 rows to fold.
    n_pref = max(1, n_sub // max(k - 1, m - k + 1))
    for b in range(0, prefixes.shape[0], n_pref):
        pref = prefixes[b : b + n_pref].astype(np.intp)
        partial = fold.reduce(rows[pref], axis=-2)
        last = pref[:, -1]
        counts = m - 1 - last
        # Flat lexicographic order: prefix by prefix, completions ascending.
        owner = np.repeat(np.arange(pref.shape[0]), counts)
        start = np.cumsum(counts) - counts
        after = np.arange(owner.size) + np.repeat(last + 1 - start, counts)
        for s in range(0, owner.size, n_sub):
            o, j = owner[s : s + n_sub], after[s : s + n_sub]
            col = partial[o]
            fold(col, rows[j], out=col)
            # Only a row term needs the subsets' indices; the rest, only the winner's.
            row_sum = None if term is None else term[np.column_stack((pref[o], j))].sum(axis=-1)
            vals = sign * finish(k, col, row_sum)
            i = int(vals.argmax())
            if vals[i] > best_val:
                best_val = float(vals[i])
                best_combo = np.append(pref[o[i]], j[i])
    assert best_combo is not None
    return best_val, best_combo


def exhaustive_select(
    ch: DmcChannel, k: int, criterion: str
) -> tuple[SubsetMask, float]:
    """Globally optimal k-subset under 'rate', 'ser', or 'cutoff'.

    Rate and cutoff rate are maximized, SER is minimized. Ties resolve to the
    lexicographically smallest subset (enumeration order). Guarded to at most
    10^7 candidate subsets.

    Branch and bound over the (k-1)-prefixes, in two passes. Pass 1 bounds
    every completion of each prefix P from P's own column aggregate
    (``_prefix_bounds``); the best completion of the ``_INCUMBENT_PREFIXES``
    best-bounded prefixes is the incumbent. Pass 2 scores, in lexicographic
    order, every completion of each prefix whose bound is at least the
    incumbent minus ``_BOUND_MARGIN``, which covers every optimal subset and
    every tie. Each prefix's aggregate is folded once and extended by every
    completion j > P[-1]; the fold order is the scorer's, so values have the
    bits of the matching ``rates.batch_*`` call.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    m = ch.num_inputs
    check_exhaustive_size(m, k)
    parts = rates._COLUMN_SCORERS[criterion](ch)
    # Negation is exact, so maximizing sign * value keeps the values' bits.
    sign = -1.0 if criterion == "ser" else 1.0
    n_sub = max(1, _CHUNK_ENTRIES // ch.num_outputs)
    prefixes = _prefixes(m, k)
    bound = np.empty(prefixes.shape[0])
    n_pref = max(1, n_sub // (k - 1))  # pass 1 gathers k - 1 rows a prefix
    for b in range(0, prefixes.shape[0], n_pref):
        bound[b : b + n_pref] = _prefix_bounds(parts, criterion, k, prefixes[b : b + n_pref])
    rest = max(0, bound.size - _INCUMBENT_PREFIXES)
    incumbent, _ = _scan(parts, sign, m, k, prefixes[np.argpartition(bound, rest)[rest:]], n_sub)
    kept = prefixes[bound >= incumbent - _BOUND_MARGIN]
    best_val, best_combo = _scan(parts, sign, m, k, kept, n_sub)
    return SubsetMask.from_indices(m, best_combo), sign * best_val


def evaluate_mask(ch: DmcChannel, mask: SubsetMask) -> dict[str, float]:
    """Rate, cutoff rate, and SER of one subset, as a plain dict."""
    return {
        "rate": uniform_subset_rate(ch, mask),
        "cutoff": cutoff_rate(ch, mask),
        "ser": ser_ml(ch, mask),
    }
