"""Input-subset selection by symbol-switching local search and by
exhaustive enumeration.

The local search (binary switching) targets the ML symbol error rate: it
repeatedly replaces the selected symbol with the highest misdetection cost by
the outside candidate that lowers the total SER the most, falling back to the
next-costliest symbol when no improving swap exists. Once one full pass would
score K (M - K) L entries or more (2^19), each position is screened first: an
upper bound on every candidate's swap score, built from a per-input gain
vector kept across passes and the columns the position owns, skips a position
that cannot beat the current SER by the 1e-9 margin, and otherwise only the
candidates within twice the margin of the best bound are scored exactly. The
bounds' rounding (about 1e-14) is far below the margin, so the masks and SER
bits are those of scoring every swap. Small unscreened searches, whose
restarts' candidate blocks hold (M - K) L < 2^13 entries, run all restarts in
lockstep instead of one after another: each pass reads every live restart's
column state in one stacked call, and each step scores one position of every
restart still searching in one stack, with the same swaps as one restart
alone.

Exhaustive search is exact branch and bound, level by level over the
d-prefixes P of the K-subsets (d = 1 .. K, lexicographic order, each with
room for K - d larger inputs); depth K is the leaf level, the K-subsets
themselves. A child's column aggregate is its parent's folded with one more
row, and the criterion's finish in ``rates`` turns it into a bound on every
completion of P (a genie bound for the rate, the least row mass for the
cutoff rate, the largest row mass for SER), which at depth K is the subset's
value. The incumbent is a short dive from depth
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
from .channel import DmcChannel, SubsetMask, check_integer, check_seed, check_subset_size
from .rates import cutoff_rate, ser_ml, uniform_subset_rate

EXHAUSTIVE_GUARD = 10**7
_MAX_PASSES = 1000  # switching passes per restart before the search is cut

CRITERIA = tuple(rates._COLUMN_SCORERS)
# Float64 entries (512 kB) in one (subsets, L) working array of exhaustive
# search. On a 2-core x86 VM, 2^16 ran 10-20% faster than 2^15, 2^17 or 2^18
# at M = 64, K = 4, and within 10% of the best of them at M = 256, K = 3.
_CHUNK_ENTRIES = 2**16
# Exhaustive search dives for its incumbent with this many best-bounded nodes
# per depth.
_INCUMBENT_PREFIXES = 16
# Slack on a bound, in its own units (a criterion's value, or a switching
# screen's column-maxima sum): it covers the rounding of a bound and of a
# value (about 1e-15 and 1e-14), so no tie is pruned.
_BOUND_MARGIN = 1e-9
# Binary switching screens its swaps (``_Screen``) once one full pass would
# score K (M - K) L entries or more. On a 2-core x86 VM (3 random channels at
# 10 dB, 20 restarts, best of 3), plain -> screened took 9.9 -> 17.8 ms at
# M = 16, K = 4; 17 -> 30, 50 -> 77 and 78 -> 118 ms at M = 64, K = 4, 16, 32;
# and at M = 256, 89 -> 131 ms at K = 4, 165 -> 158 at K = 8 (507,904
# entries), 374 -> 245 at K = 16, 856 -> 417 at K = 32 and 1712 -> 719 at K = 64.
_SCREEN_MIN_ENTRIES = 2**19


# Binary switching runs the descents of all restarts in lockstep
# (``_lockstep_search``) while one restart's candidate block, (M - K) L
# entries, is below this and the search is not screened; larger blocks run one
# restart at a time (``_local_search``). On a 2-core x86 VM (random channels
# at 10 dB, 20 restarts, best of 5, two channels each), one at a time ->
# lockstep took 3.1-3.3 -> 1.4 ms at M = L = 16, K = 4 (192 entries);
# 4.8-6.2 -> 3.0-4.2 ms at M = L = 64, K = 4 (3,840); 6.4-6.6 -> 4.8-5.4 ms
# at M = 128, L = 64, K = 4 (7,936); even at 15,360 and 16,128; and 1.17-1.39
# times as long from 31,744 to 65,024 (M = 256, K = 2 and 8). Lockstep groups
# of one restart do not close that gap: the scoring costs the same, but the
# lockstep indexes its stacked state in every pass and step. On the bundled H at
# -10, 0, 10 and 25 dB, K = 2, 3, 4, 6, 8 (20 restarts, best of 7), groups of
# one took 1.23-1.35 times as long as one restart at a time (371 -> 471 ms
# over the 20 searches), so the larger blocks keep ``_local_search``.
_LOCKSTEP_MAX_BLOCK = 2**13
# Float64 entries per restart in one group's largest array (1 MiB): the
# lockstep's (restarts, M, L) score stack, or else the (restarts, K, L) rows
# of the starting SERs. Restarts run in groups of at most this many entries'
# worth (one restart if its own is larger), so memory does not grow with the
# restart count. At M = L = 64, K = 4 (20 restarts, six channels) a lockstep
# search took 3.75 ms at 2^17 or 2^18, 4.66 ms at 2^16 and 6.50 ms at 2^14.
_RESTART_GROUP_ENTRIES = 2**17


@dataclass(frozen=True)
class BsaConfig:
    """Subset size, restart count and seed of a switching search: k is an
    integer of at least 2 (``bsa_select`` checks it against M with
    ``check_bsa_size``), restarts an integer in [1, 10^6], and ``rng_seed``
    must pass ``channel.check_seed``."""

    k: int
    restarts: int = 20
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_integer(self.k, "k")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        check_integer(self.restarts, "restarts")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.restarts > 10**6:
            raise ValueError("restarts must be at most 10^6")
        check_seed(self.rng_seed, "rng_seed")


@dataclass(frozen=True)
class BsaResult:
    """Best mask over all restarts, with per-restart diagnostics."""

    mask: SubsetMask
    ser: float
    truncated: bool
    initial_sers: tuple[float, ...]
    final_sers: tuple[float, ...]


def check_bsa_size(m: int, k: int) -> None:
    """Raise ValueError unless switching search can pick k of m inputs: it
    needs m >= 3, and k must pass ``channel.check_subset_size`` for m - 1,
    so that an input is left to swap in."""
    if m < 3:
        raise ValueError(f"binary switching needs at least 3 inputs, got {m}")
    check_subset_size(m - 1, k)


def check_exhaustive_size(m: int, k: int) -> None:
    """Raise ValueError unless exhaustive search over C(m, k) subsets is
    allowed: k must pass ``channel.check_subset_size`` and C(m, k) must be
    at most ``EXHAUSTIVE_GUARD``."""
    check_subset_size(m, k)
    n_subsets = math.comb(m, k)
    if n_subsets > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"C({m},{k}) = {n_subsets} subsets exceeds the guard {EXHAUSTIVE_GUARD}"
        )


class _Screen:
    """Upper bounds on the swap scores of one switching descent, kept across
    its passes. A swap of position j for candidate c scores S_c(j) =
    sum_y max(base_j(y), P(y|c)), where base_j is the column maxima of the
    subset without j: ``second`` on the outputs j owns, ``best`` elsewhere.
    With the gain G_c = sum_y max(0, P(y|c) - best(y)) kept for every input,
    S_c(j) = sum best + G_c - sum_{y owned by j} [best(y) - clip(P(y|c),
    second(y), best(y))], which reads only the columns j owns."""

    def __init__(self, rows: np.ndarray) -> None:
        self.cols = np.ascontiguousarray(rows.T)  # row y holds P(y|x) of every x
        self.best: np.ndarray | None = None  # what the gains were computed against

    def refresh(self, best: np.ndarray, inside: np.ndarray) -> None:
        """Move the gains to the column maxima ``best`` of the subset marked
        by ``inside``, recomputing them only on the outputs whose maximum
        changed."""
        if self.best is None:
            self.gain = np.maximum(self.cols - best[:, None], 0.0).sum(axis=0)
        else:
            changed = np.flatnonzero(best != self.best)
            cols = self.cols[changed]
            self.gain += np.maximum(cols - best[changed, None], 0.0).sum(axis=0)
            self.gain -= np.maximum(cols - self.best[changed, None], 0.0).sum(axis=0)
        self.best = best
        # Inputs in the subset are no candidates.
        self.offset = np.where(inside, -np.inf, self.gain + best.sum())

    def bounds(self, own: np.ndarray, second: np.ndarray) -> np.ndarray:
        """S_c(j) up to rounding for every input c outside the subset (-inf
        inside), j the position that owns the outputs ``own``."""
        best = self.best[own]
        kept = np.maximum(self.cols[own], second[own, None])
        np.minimum(kept, best[:, None], out=kept)
        return kept.sum(axis=0) + self.offset - best.sum()


def _local_search(
    ch: DmcChannel, parts, inside: np.ndarray, cur: float
) -> tuple[np.ndarray, float, bool]:
    """Run switching passes on the membership vector ``inside``, whose subset
    has SER ``cur``, until no swap improves, or ``_MAX_PASSES`` passes have
    run (reported as truncated); ``parts`` is ``rates._ser_parts(ch)``.
    Updates ``inside`` in place. ``bsa_select`` runs this one restart at a
    time for searches too large for ``_lockstep_search``, which there is
    slower even one restart at a time (see ``_LOCKSTEP_MAX_BLOCK``).
    Unscreened, a position scores every input as its swap candidate, as in
    ``_lockstep_search``.

    Searches of ``_SCREEN_MIN_ENTRIES`` or more bound each position's swap
    scores with a ``_Screen`` first: they skip a position whose best bound is
    more than ``_BOUND_MARGIN`` short of the current score K (1 - cur), and
    score only the candidates within twice the margin of that bound."""
    rows, fold, finish = parts[:3]
    k = np.count_nonzero(inside)
    screen = None
    if k * (ch.num_inputs - k) * ch.num_outputs >= _SCREEN_MIN_ENTRIES:
        screen = _Screen(rows)
    pool, candidates = np.arange(ch.num_inputs), rows
    passes = 0
    while True:
        sel = np.flatnonzero(inside)
        owner, best, second, costs = rates._column_state(ch, sel)
        if screen is not None:
            screen.refresh(best, inside)
            target = k * (1.0 - cur) - _BOUND_MARGIN
        # Highest cost first; the stable sort breaks ties by position.
        for j in np.argsort(-costs, kind="stable"):
            owned = owner == j
            if screen is not None:
                bound = screen.bounds(np.flatnonzero(owned), second)
                top = bound.max()
                if top < target:
                    continue
                pool = np.flatnonzero(bound >= top - 2.0 * _BOUND_MARGIN)
                candidates = rows[pool]
            sers = finish(k, k, fold(np.where(owned, second, best), candidates), None)
            c = int(sers.argmin())
            if sers[c] < cur:
                inside[sel[j]] = False
                inside[pool[c]] = True
                cur = float(sers[c])
                break
        else:
            return sel, cur, False
        passes += 1
        if passes >= _MAX_PASSES:
            return np.flatnonzero(inside), cur, True


def _lockstep_search(
    ch: DmcChannel, parts, inside: np.ndarray, cur: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the switching descents of all rows of the (restarts, M) membership
    array ``inside`` at once, row r from SER ``cur[r]``, with the swaps that
    ``_local_search`` makes on each row alone. Updates ``inside`` and ``cur``
    in place and returns each restart's subset (restarts, K), SER and
    truncation flag; ``parts`` is ``rates._ser_parts(ch)``.

    A pass reads the column state of every restart still descending in one
    stacked call. Step t of the pass scores, in one fold/finish stack, all
    swaps of the t-th costliest position of every restart that has not yet
    switched in this pass; a restart leaves the pass at its first improving
    swap, and the descent when a pass has none or ``_MAX_PASSES`` passes have
    switched."""
    rows, fold, finish = parts[:3]
    n, k = inside.shape[0], np.count_nonzero(inside[0])
    truncated = np.zeros(n, dtype=bool)
    live = np.arange(n)  # restarts still descending
    for _ in range(_MAX_PASSES):
        sel = np.nonzero(inside[live])[1].reshape(-1, k)
        owner, best, second, costs = rates._column_state(ch, sel)
        # Highest cost first; the stable sort breaks ties by position.
        order = np.argsort(-costs, axis=1, kind="stable")
        # Column maxima of each subset without its t-th costliest position.
        bases = np.where(owner[:, None] == order[..., None], second[:, None], best[:, None])
        search = np.arange(live.size)  # rows of this pass that have not switched
        for t in range(k):
            # Every input is scored, the selected ones too: their rows are at
            # most ``best`` in every column, and float sums are monotone, so
            # they score at least the current SER and never switch in.
            sers = finish(k, k, fold(bases[search, t, None], rows), None)
            low = sers.min(axis=1)
            won = low < cur[live[search]]
            if not won.any():
                continue
            r = search[won]
            inside[live[r], sel[r, order[r, t]]] = False
            inside[live[r], sers[won].argmin(axis=1)] = True
            cur[live[r]] = low[won]
            search = search[~won]
            if not search.size:
                break
        # No swap of any position improves: a local optimum.
        live = np.delete(live, search)
        if not live.size:
            break
    else:
        truncated[live] = True
    return np.nonzero(inside)[1].reshape(n, k), cur, truncated


def bsa_select(ch: DmcChannel, cfg: BsaConfig) -> BsaResult:
    """Binary switching search for the minimum-SER subset of size k.

    Each restart draws a fresh uniform random subset from its own RNG stream
    (seed, restart index) and descends to a local optimum; the best local
    optimum over all restarts wins, the first one on ties.

    The input size alone picks how the descents run. When one restart's
    candidate block, (M - k) L entries, is below ``_LOCKSTEP_MAX_BLOCK`` and
    the search is not screened, restarts descend in lockstep
    (``_lockstep_search``); otherwise each runs ``_local_search`` alone.
    Both make the same swaps, so every result field is the same. Restarts
    run in groups of about ``_RESTART_GROUP_ENTRIES`` entries' worth of
    working arrays, and all share one ``rates._ser_parts``.
    """
    m, k = ch.num_inputs, cfg.k
    check_bsa_size(m, k)
    block = (m - k) * ch.num_outputs
    lockstep = block < _LOCKSTEP_MAX_BLOCK and k * block < _SCREEN_MIN_ENTRIES
    parts = rates._ser_parts(ch)
    # Restarts per group: the largest array per restart is the lockstep's
    # (M, L) score block, or else the (K, L) rows of the starting SER.
    size = max(1, _RESTART_GROUP_ENTRIES // ((m if lockstep else k) * ch.num_outputs))
    n_groups = -(-cfg.restarts // size)
    best_sel: np.ndarray | None = None
    best_ser = math.inf
    truncated = False
    initial: list[float] = []
    final: list[float] = []
    for g in range(n_groups):
        # Group sizes differ by at most one; restarts keep their order.
        restarts = range(g * cfg.restarts // n_groups, (g + 1) * cfg.restarts // n_groups)
        inside = np.zeros((len(restarts), m), dtype=bool)
        for row, restart in zip(inside, restarts):
            rng = np.random.default_rng([cfg.rng_seed, restart])
            row[rng.choice(m, size=k, replace=False)] = True
        cur = rates._score(parts, np.nonzero(inside)[1].reshape(-1, k))
        initial.extend(cur.tolist())
        if lockstep:
            sels, sers, truncs = _lockstep_search(ch, parts, inside, cur)
        else:
            sels, sers, truncs = zip(*(_local_search(ch, parts, row, c) for row, c in zip(inside, cur.tolist())))
        final.extend(map(float, sers))
        truncated = truncated or any(truncs)
        i = int(np.argmin(sers))
        if sers[i] < best_ser:
            best_ser, best_sel = float(sers[i]), sels[i]
    assert best_sel is not None
    return BsaResult(
        mask=SubsetMask.from_indices(m, best_sel),
        ser=best_ser,
        truncated=truncated,
        initial_sers=tuple(initial),
        final_sers=tuple(final),
    )


def _nodes(parts, m: int, k: int, nodes: np.ndarray, floor: float, n_sub: int):
    """The children of the d-prefix rows of ``nodes`` whose bound reaches
    ``floor``, and their bounds, sign * finish(k, d + 1, ...) with the
    criterion's ``parts``. A child appends one index j > P[-1] that leaves
    room for the k - d - 1 larger inputs still to come; children come in
    lexicographic order, built and bounded for chunks of parents with about
    ``n_sub`` children at a time. At depth k a child is a k-subset and its
    bound is sign * its value; each chunk keeps only its first best one."""
    rows, fold, finish, term, sign = parts
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
        # Negation is exact, so the leaves keep the values' bits.
        bound = sign * finish(k, d + 1, col, row_sum)
        keep = bound >= floor if d + 1 < k else np.arange(bound.size) == bound.argmax()
        kept_nodes.append(children[keep])
        kept_bounds.append(bound[keep])
        a = b
    return np.concatenate(kept_nodes), np.concatenate(kept_bounds)


def _swap_descent(parts, sel: np.ndarray) -> tuple[np.ndarray, float]:
    """Best-improvement single-swap descent from the ascending subset ``sel``
    under the criterion's ``parts``. Each step scores all k (m - k) swaps as
    sorted rows in one stack, takes the best (ties to the lowest position,
    then the lowest candidate) and stops when none is strictly better.
    Returns the subset and its value."""
    sign = parts[-1]
    m = parts[0].shape[0]
    sel = np.asarray(sel, dtype=np.intp)
    k, n = sel.size, m - sel.size
    # Swap t puts the (t % n)-th outside input at position t // n.
    pos, cand = np.divmod(np.arange(k * n), n)
    cur = sign * float(rates._score(parts, sel))
    while n:
        outside = np.delete(np.arange(m), sel)
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
    d = 1 .. k (``_nodes``), each bounded by its criterion's finish in
    ``rates``; depth k holds the subsets themselves, bounded by their values.
    The incumbent comes at depth min(2, k-1): the ``_INCUMBENT_PREFIXES``
    best-bounded nodes, descended keeping that many best-bounded nodes per
    depth, give the best subset below them, which ``_swap_descent`` then
    polishes. From that depth on, a node is kept only if its bound is at
    least the incumbent minus ``_BOUND_MARGIN``, which covers every optimal
    subset and every tie. The leaves are scored in lexicographic order with
    the scorer's fold, so the first best is the smallest optimum and its
    value has the bits of the matching ``rates.batch_*`` call.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    m = ch.num_inputs
    check_exhaustive_size(m, k)
    parts = rates._COLUMN_SCORERS[criterion](ch)
    sign = parts[-1]
    n_sub = max(1, _CHUNK_ENTRIES // ch.num_outputs)

    def top(nodes: np.ndarray, bound: np.ndarray) -> np.ndarray:
        rest = max(0, bound.size - _INCUMBENT_PREFIXES)
        return nodes[np.argpartition(bound, rest)[rest:]]

    first = min(2, k - 1)  # the first depth that is pruned
    nodes = np.empty((1, 0), np.min_scalar_type(m - 1))
    floor = -math.inf
    for d in range(1, k + 1):
        nodes, bound = _nodes(parts, m, k, nodes, floor, n_sub)
        if d == first:
            dive = top(nodes, bound)
            for _ in range(first + 1, k):
                dive = top(*_nodes(parts, m, k, dive, -math.inf, n_sub))
            leaves, value = _nodes(parts, m, k, dive, -math.inf, n_sub)
            floor = sign * _swap_descent(parts, leaves[value.argmax()])[1] - _BOUND_MARGIN
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
