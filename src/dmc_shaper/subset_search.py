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

# Criterion name -> batched evaluator. SER is minimized, the two rates maximized.
_SCORERS = {"rate": rates.batch_rate, "ser": rates.batch_ser, "cutoff": rates.batch_cutoff_rate}
CRITERIA = tuple(_SCORERS)


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
        improved = False
        for j in order:
            base = np.where(best_rows == j, second, best)
            new_best = np.maximum(base[None, :], trans[outside])
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


def _combo_chunks(m: int, k: int, chunk: int):
    it = itertools.combinations(range(m), k)
    while block := list(itertools.islice(it, chunk)):
        yield np.asarray(block, dtype=np.intp)


def exhaustive_select(
    ch: DmcChannel, k: int, criterion: str
) -> tuple[SubsetMask, float]:
    """Globally optimal k-subset under 'rate', 'ser', or 'cutoff'.

    Rate and cutoff rate are maximized, SER is minimized. Ties resolve to the
    lexicographically smallest subset (enumeration order). Guarded to at most
    10^7 candidate subsets.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    m = ch.num_inputs
    check_exhaustive_size(m, k)
    # Negation is exact, so maximizing sign * value keeps the values' bits.
    sign = -1.0 if criterion == "ser" else 1.0
    best_val = -math.inf
    best_combo: np.ndarray | None = None
    chunk = max(1, int(4_000_000 / (k * ch.num_outputs)))
    for combos in _combo_chunks(m, k, chunk):
        vals = sign * _SCORERS[criterion](ch, combos)
        i = int(vals.argmax())
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_combo = combos[i]
    assert best_combo is not None
    return SubsetMask.from_indices(m, best_combo), sign * best_val


def evaluate_mask(ch: DmcChannel, mask: SubsetMask) -> dict[str, float]:
    """Rate, cutoff rate, and SER of one subset, as a plain dict."""
    return {
        "rate": uniform_subset_rate(ch, mask),
        "cutoff": cutoff_rate(ch, mask),
        "ser": ser_ml(ch, mask),
    }
