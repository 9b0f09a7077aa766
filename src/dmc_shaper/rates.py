"""Information rates of a DMC: mutual information, subset-uniform rate,
ML symbol error rate, cutoff rate, per-symbol misdetection cost, and
channel capacity via alternating maximization (Blahut-Arimoto).

All rates are in bits per channel use. Conventions: 0*log(0) = 0 and
sqrt(0) = 0 throughout; ML argmax ties break toward the smallest input index.

Each subset criterion has one formula, a ``batch_*`` function that takes an
integer index stack of shape (..., K), rows of ascending input indices, and
returns one value per row; the scalar functions call it on ``mask.indices``.
Rate, cutoff rate and SER each fold the subset's rows into a column
aggregate (sum, sum of square roots, maximum) and finish from it; exhaustive
search builds the same aggregate one row at a time and calls the same finish.
The per-input misdetection costs have one formula too, ``_column_state``, which
also gives each output's best and second-best selected row; binary switching
reads it once per pass and scores each swap with the SER fold and finish. In
large searches it first bounds the swaps from the same best and second-best
rows and scores with the fold and finish only the swaps that the bound, less
a 1e-9 margin, cannot rule out; the SER bits stay those of ``batch_ser``.
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

from .channel import DmcChannel, InputDistribution, SubsetMask

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
    the row terms sum_y P(y|x) ln P(y|x)."""

    def finish(k: int, denom: np.ndarray, row_sum: np.ndarray) -> np.ndarray:
        dlogd = denom * np.log(np.where(denom > 0.0, denom, 1.0))  # 0 where d(y) = 0
        return math.log2(k) + (row_sum - dlogd.sum(axis=-1)) / (k * _LN2)

    return ch.trans, np.add, finish, _row_plogp(ch)


def cutoff_bits(k: int, bhattacharyya_sum):
    """2*log2(K) - log2(B): the cutoff rate for B = sum_y [sum_x sqrt(P(y|x))]^2."""
    return 2.0 * math.log2(k) - np.log2(bhattacharyya_sum)


def _cutoff_parts(ch: DmcChannel):
    """Cutoff rate from the column sums sum_{x in S} sqrt(P(y|x))."""

    def finish(k: int, col: np.ndarray, _row_sum: None) -> np.ndarray:
        return cutoff_bits(k, (col * col).sum(axis=-1))

    return np.sqrt(ch.trans), np.add, finish, None


def _ser_parts(ch: DmcChannel):
    """ML symbol error rate from the column maxima max_{x in S} P(y|x)."""

    def finish(k: int, colmax: np.ndarray, _row_sum: None) -> np.ndarray:
        return 1.0 - colmax.sum(axis=-1) / k

    return ch.trans, np.maximum, finish, None


def _column_state(ch: DmcChannel, idx: np.ndarray):
    """ML decision state of one subset, ``idx`` a vector of ascending inputs:
    each output's owner (position of its first most likely row), best and
    second-best P(y|x), and each row's misdetection cost, its mass P(y|x_j) on
    outputs owned by another row (so tied mass counts against later rows)."""
    sub = ch.trans[idx]
    cols = np.arange(sub.shape[1])
    owner = sub.argmax(axis=0)
    best = sub[owner, cols]
    # Masking the owners is several times faster than np.partition on axis 0.
    rest = sub.copy()
    rest[owner, cols] = -np.inf
    second = rest.max(axis=0)
    # bincount sums each input's owned mass in output order, as np.add.at
    # would; another order moves the last bits and reorders near-tied costs.
    costs = sub.sum(axis=1) - np.bincount(owner, weights=best, minlength=len(idx))
    return owner, best, second, costs


# Criterion -> parts(ch) = (rows, fold, finish, term). A subset's score is
# finish(K, fold.reduce(rows[idx], axis=-2), term[idx].sum(axis=-1)), with
# None for the last argument when term is None; numpy folds axis -2 row after
# row, so folding one more row onto a prefix's aggregate gives the same bits.
_COLUMN_SCORERS = {"rate": _rate_parts, "ser": _ser_parts, "cutoff": _cutoff_parts}


def _score(parts, idx: np.ndarray) -> np.ndarray:
    rows, fold, finish, term = parts
    row_sum = None if term is None else term[idx].sum(axis=-1)
    return finish(idx.shape[-1], fold.reduce(rows[idx], axis=-2), row_sum)


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
