"""Reference computations the benchmark checks the program against.

Everything here is written from the model's definition with numpy and scipy
only; nothing calls into dmc_shaper. Rates are in bits, subsets are stacks of
row indices, and probabilities are linear (entries that underflow are exact
zeros, which the tolerances in the checks allow for).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr

# Input digit d of a QPSK vector (antenna 1 most significant) is the point
# (+1+1j, +1-1j, -1+1j, -1-1j)[d] / sqrt(2T); output bit 2i (2i+1) is the
# sign of the real (imaginary) part at receive antenna i, 1 meaning +1.
_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])


def qpsk_inputs(t: int) -> np.ndarray:
    rows = [
        [_POINTS[(i // 4 ** (t - 1 - a)) % 4] for a in range(t)] for i in range(4**t)
    ]
    return np.array(rows) / math.sqrt(2.0 * t)


def _component_args(h: np.ndarray, snr_db: float) -> np.ndarray:
    """sqrt(2 snr) times the real/imaginary parts of H x, one row per input."""
    g = qpsk_inputs(h.shape[1]) @ h.T
    comp = np.stack([g.real, g.imag], axis=-1).reshape(g.shape[0], -1)
    return math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)) * comp


def _output_signs(n_comp: int) -> np.ndarray:
    """(L, n_comp) array of +1/-1: the sign each output index gives a component."""
    bits = (np.arange(2**n_comp)[:, None] >> np.arange(n_comp)[None, :]) & 1
    return 2.0 * bits - 1.0


def channel_law(h: np.ndarray, snr_db: float) -> np.ndarray:
    """P(y|x) as the product over components of the normal CDF Phi(s * a)."""
    args = _component_args(h, snr_db)
    signs = _output_signs(args.shape[1])
    return np.prod(ndtr(args[:, None, :] * signs[None, :, :]), axis=2)


def log_channel_law(h: np.ndarray, snr_db: float) -> np.ndarray:
    """Natural log of channel_law, kept finite where the linear law underflows."""
    args = _component_args(h, snr_db)
    signs = _output_signs(args.shape[1])
    return log_ndtr(args[:, None, :] * signs[None, :, :]).sum(axis=2)


def _xlogy_rows(p: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """sum_y p * log2(p / ref) along the last axis, with 0 log 0 = 0."""
    pos = p > 0.0
    ratio = np.where(pos, p, 1.0) / np.where(pos, ref, 1.0)
    return np.where(pos, p * np.log2(ratio), 0.0).sum(axis=-1)


def subset_rates(p: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Mutual information of the uniform input on each row subset."""
    rows = p[subsets]  # (n, K, L)
    k = subsets.shape[-1]
    q = rows.mean(axis=-2, keepdims=True)
    return _xlogy_rows(rows, np.broadcast_to(q, rows.shape)).sum(axis=-1) / k


def subset_cutoffs(p: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """-log2 sum_y (mean over the subset of sqrt P(y|x))^2."""
    col = np.sqrt(p[subsets]).mean(axis=-2)
    return -np.log2((col * col).sum(axis=-1))


def subset_sers(p: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """ML symbol error rate of the uniform input on each row subset."""
    return 1.0 - p[subsets].max(axis=-2).sum(axis=-1) / subsets.shape[-1]


CRITERIA = {"rate": subset_rates, "cutoff": subset_cutoffs, "ser": subset_sers}
MAXIMIZE = {"rate": True, "cutoff": True, "ser": False}


def all_subsets(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m) in lexicographic order, one per row."""
    out = [()]
    for _ in range(k):
        out = [c + (j,) for c in out for j in range((c[-1] + 1) if c else 0, m)]
    return np.array(out, dtype=np.intp)


def single_swaps(subset: np.ndarray, m: int) -> np.ndarray:
    """Every subset that differs from ``subset`` in exactly one member."""
    outside = np.setdiff1d(np.arange(m), subset)
    rows = []
    for pos in range(subset.shape[0]):
        for new in outside:
            s = subset.copy()
            s[pos] = new
            rows.append(np.sort(s))
    return np.array(rows, dtype=np.intp)


def random_subsets(m: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.random((count, m)).argsort(axis=1)[:, :k], axis=1)


def gram(p: np.ndarray) -> np.ndarray:
    """A_ij = sum_y sqrt(P(y|i) P(y|j))."""
    s = np.sqrt(p)
    return s @ s.T


def boolean_minimum(p: np.ndarray, k: int) -> float:
    """min over k-subsets S of sum_{i,j in S} A_ij (the SDP's lower bound target)."""
    a = gram(p)
    subsets = all_subsets(p.shape[0], k)
    return float(a[subsets[:, :, None], subsets[:, None, :]].sum(axis=(1, 2)).min())


def dual_capacity_bound(p: np.ndarray) -> float:
    """max_x D(P(.|x) || q) for the uniform-input output law q: C is at most this."""
    q = p.mean(axis=0)
    return float(_xlogy_rows(p, np.broadcast_to(q, p.shape)).max())


def bit_llrs(log_p: np.ndarray, selected: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log P(bit=1 | y) / P(bit=0 | y) for natural binary labels, MSB first.

    The r-th selected input (ascending) carries label r; the prior is uniform.
    """
    q = int(selected.shape[0]).bit_length() - 1
    lp = log_p[np.ix_(selected, y)].T  # (uses, K)
    ranks = np.arange(selected.shape[0])
    out = np.empty((y.shape[0], q))
    for j in range(q):
        one = ((ranks >> (q - 1 - j)) & 1).astype(bool)
        out[:, j] = logsumexp(lp[:, one], axis=1) - logsumexp(lp[:, ~one], axis=1)
    return out


def message_length(n: int, code_rate: float) -> int:
    """Message bits of a full-rank n-column code with round(n (1 - rate)) checks."""
    return n - int(round(n * (1.0 - code_rate)))
