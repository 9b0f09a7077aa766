"""Information rates of a DMC: mutual information, subset-uniform rate,
ML symbol error rate, cutoff rate, per-symbol misdetection cost, and
channel capacity via alternating maximization (Blahut-Arimoto).

All rates are in bits per channel use. Conventions: 0*log(0) = 0 and
sqrt(0) = 0 throughout; ML argmax ties break toward the smallest input index.

Each subset criterion has one formula, a ``batch_*`` function that takes an
integer index stack of shape (..., K), rows of ascending input indices, and
returns one value per row; the scalar functions call it on ``mask.indices``.
Rate, cutoff rate and SER each fold the subset's rows into a column
aggregate (sum, sum of square roots, maximum) and finish from it. The finish
of a prefix P of d rows, finish(K, d, aggregate, row-term sum), is the
subset's value at d = K; below K it bounds the value of every K-subset that
extends P, from above for a rate and from below for SER. Each criterion
states its direction once, as a sign (+1 for the rates, -1 for SER), and a
search maximizes sign * finish: the search applies the sign, the finish
never does. Exhaustive search builds the aggregate one row at a time and
calls the same finish, and binary switching scores each swap with the SER
fold and finish. The per-input misdetection costs have one formula too,
``_column_state``, which also gives each output's best and second-best
selected row and, like the ``batch_*`` functions, takes a (..., K) stack of
subsets.
The rate is log2 K + (sum_{x in S} r(x) - sum_y d(y) ln d(y)) / (K ln 2) with
the row term r(x) = sum_y P(y|x) ln P(y|x) and d(y) = sum_{x in S} P(y|x).

``mutual_information`` and ``blahut_arimoto`` share one kernel, ``_divergence``,
so ``capacity_bits`` equals ``mutual_information`` on ``input_dist`` bit for bit;
on a uniform subset prior ``batch_rate`` agrees with it to about 1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DmcChannel, InputDistribution, SubsetMask, check_integer

_LN2 = math.log(2.0)


def _check_mask(ch: DmcChannel, mask: SubsetMask) -> np.ndarray:
    if mask.m != ch.num_inputs:
        raise ValueError("mask length does not match channel inputs")
    return mask.indices


def _row_plogp(ch: DmcChannel) -> np.ndarray:
    """Row term sum_y P(y|x) ln P(y|x) of every input, in nats."""
    safe_log = np.where(ch.trans > 0.0, ch.log_trans, 0.0)
    return (ch.trans * safe_log).sum(axis=1)


def _divergence(trans: np.ndarray, row_plogp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """KL divergence D(x) = r(x) - sum_{y: q(y)>0} P(y|x) ln q(y) in nats, q = p P.

    A column with q(y) = 0 enters as ln 1 = 0. It may still hold a nonzero
    P(y|x): a tiny one whose product with every p(x) underflows, or any one of
    an input with p(x) = 0. Its term counts as 0 either way.
    """
    q = p @ trans
    return row_plogp - trans @ np.log(np.where(q > 0.0, q, 1.0))


def mutual_information(ch: DmcChannel, p: InputDistribution) -> float:
    """I(X;Y) = sum_x p(x) D(x) in bits for input pmf p over the channel inputs."""
    if len(p) != ch.num_inputs:
        raise ValueError(
            f"distribution has {len(p)} entries, channel has {ch.num_inputs} inputs"
        )
    return float(p.probs @ _divergence(ch.trans, _row_plogp(ch), p.probs)) / _LN2


def _rate_parts(ch: DmcChannel):
    """Rate from the column sums d(y) = sum_{x in S} P(y|x) and the sum of
    the row terms sum_y P(y|x) ln P(y|x). Below K, a genie that tells Y
    whether X lies in P bounds every completion S of P, with w = d / K:
    I(S) <= h_b(w) + w I(P) + (1 - w) log2 (K - d)."""

    def finish(k: int, d: int, denom: np.ndarray, row_sum: np.ndarray) -> np.ndarray:
        dlogd = denom * np.log(np.where(denom > 0.0, denom, 1.0))  # 0 where d(y) = 0
        value = math.log2(d) + (row_sum - dlogd.sum(axis=-1)) / (d * _LN2)
        if d == k:  # the genie term would take log2 0
            return value
        w = d / k
        h_b = -w * math.log2(w) - (1.0 - w) * math.log2(1.0 - w)
        return h_b + w * value + (1.0 - w) * math.log2(k - d)

    return ch.trans, np.add, finish, _row_plogp(ch), 1.0


def cutoff_bits(k: int, bhattacharyya_sum):
    """2*log2(K) - log2(B): the cutoff rate for B = sum_y [sum_x sqrt(P(y|x))]^2."""
    return 2.0 * math.log2(k) - np.log2(bhattacharyya_sum)


def _cutoff_parts(ch: DmcChannel):
    """Cutoff rate from the column sums sum_{x in S} sqrt(P(y|x)). Below K,
    each row still to add adds at least the least row mass min_x sum_y
    P(y|x) to the Bhattacharyya sum B, since the cross terms are >= 0."""
    rows = np.sqrt(ch.trans)
    least = (rows * rows).sum(axis=1).min()

    def finish(k: int, d: int, col: np.ndarray, _row_sum: None) -> np.ndarray:
        b = (col * col).sum(axis=-1)
        return cutoff_bits(k, b if d == k else b + (k - d) * least)

    return rows, np.add, finish, None, 1.0


def _ser_parts(ch: DmcChannel):
    """ML symbol error rate from the column maxima max_{x in S} P(y|x). Below
    K, each row still to add adds at most the largest row mass (1 up to
    rounding) to the column maxima, so with w = d / K: SER(S) >= w SER(P) +
    (K - d) (1 - max_x sum_y P(y|x)) / K."""
    miss = 1.0 - ch.trans.sum(axis=1).max()

    def finish(k: int, d: int, colmax: np.ndarray, _row_sum: None) -> np.ndarray:
        value = 1.0 - colmax.sum(axis=-1) / d
        if d == k:
            return value
        return d / k * value + (k - d) * miss / k

    return ch.trans, np.maximum, finish, None, -1.0


def _column_state(ch: DmcChannel, idx: np.ndarray):
    """ML decision state of each subset in a (..., K) stack ``idx`` of
    ascending inputs: each output's owner (position of its first most likely
    row, the first argmax over the K axis), best and second-best P(y|x), all
    (..., L), and each row's misdetection cost (..., K), its mass P(y|x_j) on
    outputs owned by another row (so tied mass counts against later rows)."""
    sub = ch.trans[idx]
    k, l = sub.shape[-2:]
    owner = sub.argmax(axis=-2)
    # Row of each owner in the (subsets * K, L) view of the gathered stack;
    # one subset needs no offsets.
    flat = sub.reshape(-1, l)
    rows = owner
    if idx.ndim > 1:
        rows = owner + np.arange(0, len(flat), k).reshape(owner.shape[:-1] + (1,))
    cols = np.arange(l)
    best = flat[rows, cols]
    # bincount sums each input's owned mass in output order, as np.add.at
    # would; another order moves the last bits and reorders near-tied costs.
    # The per-subset row offsets keep that order within each subset.
    won = np.bincount(rows.ravel(), weights=best.ravel(), minlength=len(flat))
    costs = sub.sum(axis=-1) - won.reshape(idx.shape)
    # Masking the owners in the gathered copy is several times faster than
    # np.partition on the K axis.
    flat[rows, cols] = -np.inf
    return owner, best, sub.max(axis=-2), costs


# Criterion -> parts(ch) = (rows, fold, finish, term, sign). A subset's score
# is finish(K, K, fold.reduce(rows[idx], axis=-2), term[idx].sum(axis=-1)),
# with None for the last argument when term is None; numpy folds axis -2 row
# after row, so folding one more row onto a prefix's aggregate gives the same
# bits. Searches maximize sign * score: SER is minimized, the rates maximized.
_COLUMN_SCORERS = {"rate": _rate_parts, "ser": _ser_parts, "cutoff": _cutoff_parts}


def _score(parts, idx: np.ndarray) -> np.ndarray:
    rows, fold, finish, term, _ = parts
    k = idx.shape[-1]
    row_sum = None if term is None else term[idx].sum(axis=-1)
    return finish(k, k, fold.reduce(rows[idx], axis=-2), row_sum)


def batch_rate(ch: DmcChannel, idx: np.ndarray) -> np.ndarray:
    """Uniform-prior mutual information of each subset in a (..., K) stack."""
    return _score(_rate_parts(ch), idx)


def batch_cutoff_rate(ch: DmcChannel, idx: np.ndarray) -> np.ndarray:
    """Cutoff rate of each subset in a (..., K) stack."""
    return _score(_cutoff_parts(ch), idx)


def batch_ser(ch: DmcChannel, idx: np.ndarray) -> np.ndarray:
    """ML symbol error rate of each subset in a (..., K) stack."""
    return _score(_ser_parts(ch), idx)


def uniform_subset_rate(ch: DmcChannel, mask: SubsetMask) -> float:
    """Mutual information achieved by the uniform prior on the selected inputs."""
    return float(batch_rate(ch, _check_mask(ch, mask)))


def ser_ml(ch: DmcChannel, mask: SubsetMask) -> float:
    """Symbol error rate of ML decoding under the uniform prior on the subset."""
    return float(batch_ser(ch, _check_mask(ch, mask)))


def cutoff_rate(ch: DmcChannel, mask: SubsetMask) -> float:
    """Cutoff rate of the subset under the uniform prior, in bits."""
    return float(batch_cutoff_rate(ch, _check_mask(ch, mask)))


# ---------------------------------------------------------------------------
# Capacity by alternating maximization
# ---------------------------------------------------------------------------


def check_stopping_rule(tol: float, max_iter: int) -> None:
    """Raise ValueError unless an iterative solver can stop on (tol, max_iter)."""
    if not tol > 0.0:  # NaN fails this test too
        raise ValueError("tol must be positive")
    check_integer(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class BaResult:
    """Capacity estimate with the bracketing bounds at termination.

    The true capacity lies in [lower_bits, upper_bits]; ``capacity_bits`` is
    ``lower_bits``, achieved by ``input_dist``. ``converged`` is False when
    the iteration cap was hit before the gap fell below the tolerance.
    """

    input_dist: InputDistribution
    lower_bits: float
    upper_bits: float
    iterations: int
    converged: bool

    @property
    def capacity_bits(self) -> float:
        return self.lower_bits


def blahut_arimoto(ch: DmcChannel, tol: float = 1e-9, max_iter: int = 200_000) -> BaResult:
    """Channel capacity and its maximizing input distribution.

    Starts from the uniform distribution and alternates the standard update
    p(x) <- p(x) * exp(D(x)) / Z, where D(x) is the KL divergence of row x
    from the current output distribution. Stops when the capacity bracket
    max_x D(x) - sum_x p(x) D(x) falls below ``tol`` (in bits).
    """
    check_stopping_rule(tol, max_iter)
    trans = ch.trans
    m = ch.num_inputs
    # Row "negative entropy" sum_y P log P is constant across iterations.
    row_plogp = _row_plogp(ch)

    p = np.full(m, 1.0 / m)
    p_eval = p
    lower = upper = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        p_eval = p
        d = _divergence(trans, row_plogp, p)
        lower = float(p @ d) / _LN2
        upper = float(d.max()) / _LN2
        if upper - lower < tol:
            converged = True
            break
        p = p * np.exp(d - d.max())
        # Keep every input alive so no symbol is absorbed at exactly zero.
        p = np.maximum(p, 1e-300)
        p /= p.sum()

    # Bounds belong to the last evaluated distribution, not the final update.
    return BaResult(
        input_dist=InputDistribution(p_eval),
        lower_bits=lower,
        upper_bits=upper,
        iterations=iterations,
        converged=converged,
    )
