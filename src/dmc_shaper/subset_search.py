"""Input-subset selection by symbol-switching local search and by
exhaustive enumeration.

The local search (binary switching) targets the ML symbol error rate: it
repeatedly replaces the selected symbol with the highest misdetection cost by
the outside candidate that lowers the total SER the most, falling back to the
next-costliest symbol when no improving swap exists.
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


def _local_search(ch: DmcChannel, sel: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Run switching passes from the given subset until no swap improves, or
    ``_MAX_PASSES`` passes have run (reported as truncated)."""
    trans = ch.trans
    m = trans.shape[0]
    k = sel.shape[0]
    all_inputs = np.arange(m)
    passes = 0
    sub = trans[sel]
    cur = float(rates.batch_ser(ch, sel))
    while True:
        best_rows = sub.argmax(axis=0)
        best = sub[best_rows, np.arange(sub.shape[1])]
        masked = sub.copy()
        masked[best_rows, np.arange(sub.shape[1])] = -np.inf
        second = masked.max(axis=0)
        costs = rates.batch_misdetect(ch, sel)
        # Highest cost first; position index breaks ties (sel is ascending).
        order = np.lexsort((np.arange(k), -costs))
        outside = np.setdiff1d(all_inputs, sel, assume_unique=True)
        # A swap ends the pass, so the candidates' rows are fixed within it.
        candidates = trans[outside]
        improved = False
        for j in order:
            base = np.where(best_rows == j, second, best)
            new_best = np.maximum(base[None, :], candidates)
            sers = 1.0 - new_best.sum(axis=1) / k
            c = int(sers.argmin())
            if sers[c] < cur:
                sel = np.sort(np.concatenate((np.delete(sel, j), outside[c : c + 1])))
                sub = trans[sel]
                cur = float(sers[c])
                improved = True
                break
        if not improved:
            return sel, cur, False
        passes += 1
        if passes >= _MAX_PASSES:
            return sel, cur, True


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
        sel = np.sort(rng.choice(m, size=cfg.k, replace=False))
        initial.append(float(rates.batch_ser(ch, sel)))
        sel, ser, trunc = _local_search(ch, sel)
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


def _prefix_blocks(m: int, k: int, n: int):
    """The (k-1)-prefixes of the k-subsets of range(m), in lexicographic
    order, n at a time: every k-subset is a prefix plus one larger index."""
    it = itertools.combinations(range(m - 1), k - 1)
    while block := list(itertools.islice(it, n)):
        yield np.asarray(block, dtype=np.intp)


def exhaustive_select(
    ch: DmcChannel, k: int, criterion: str
) -> tuple[SubsetMask, float]:
    """Globally optimal k-subset under 'rate', 'ser', or 'cutoff'.

    Rate and cutoff rate are maximized, SER is minimized. Ties resolve to the
    lexicographically smallest subset (enumeration order). Guarded to at most
    10^7 candidate subsets.

    Each (k-1)-prefix's column aggregate is folded once and extended by every
    completion j > prefix[-1]; the fold order is the scorer's, so values have
    the bits of the matching ``rates.batch_*`` call.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    m = ch.num_inputs
    check_exhaustive_size(m, k)
    rows, fold, finish, term = rates._COLUMN_SCORERS[criterion](ch)
    # Negation is exact, so maximizing sign * value keeps the values' bits.
    sign = -1.0 if criterion == "ser" else 1.0
    best_val = -math.inf
    best_combo: np.ndarray | None = None
    n_sub = max(1, _CHUNK_ENTRIES // ch.num_outputs)
    # A prefix has at most m - k + 1 completions and k - 1 rows to fold.
    for pref in _prefix_blocks(m, k, max(1, n_sub // max(k - 1, m - k + 1))):
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
    return SubsetMask.from_indices(m, best_combo), sign * best_val


def evaluate_mask(ch: DmcChannel, mask: SubsetMask) -> dict[str, float]:
    """Rate, cutoff rate, and SER of one subset, as a plain dict."""
    return {
        "rate": uniform_subset_rate(ch, mask),
        "cutoff": cutoff_rate(ch, mask),
        "ser": ser_ml(ch, mask),
    }
