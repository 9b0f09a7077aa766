"""Discrete memoryless channel data model and JSON I/O.

A channel is an M x L row-stochastic matrix P(y|x), kept in both linear and
natural-log form. Linear probabilities below ``ZERO_FLOOR`` are treated as
exact zeros; the log-domain companion keeps finite values wherever they are
representable so that downstream likelihood sums stay subnormal-free.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Linear probabilities below this are exact zeros.
ZERO_FLOOR = 1e-300
# Row-sum tolerance enforced by the type itself.
ROW_SUM_TOL = 1e-9
# Looser tolerance accepted by the JSON loader before exact renormalization.
LOADER_ROW_SUM_TOL = 1e-6


def _floor_zeros(p: np.ndarray) -> np.ndarray:
    out = np.array(p, dtype=np.float64)
    out[out < ZERO_FLOOR] = 0.0
    return out


def _log_with_neg_inf(p: np.ndarray) -> np.ndarray:
    out = np.full(p.shape, -np.inf)
    pos = p > 0
    out[pos] = np.log(p[pos])
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DmcChannel:
    """Row-stochastic transition matrix with its natural-log companion."""

    trans: np.ndarray
    log_trans: np.ndarray

    def __post_init__(self) -> None:
        trans = np.ascontiguousarray(self.trans, dtype=np.float64)
        log_trans = np.ascontiguousarray(self.log_trans, dtype=np.float64)
        if trans.ndim != 2:
            raise ValueError("transition matrix must be 2-D")
        if trans.shape != log_trans.shape:
            raise ValueError("linear and log matrices must have the same shape")
        m, l = trans.shape
        if m < 2 or l < 2:
            raise ValueError(f"need at least 2 inputs and 2 outputs, got {m}x{l}")
        if not np.all(np.isfinite(trans)):
            raise ValueError("transition probabilities must be finite")
        if np.any(np.isnan(log_trans)) or np.any(log_trans == np.inf):
            raise ValueError("log probabilities must be finite or -inf")
        if np.any(trans < 0.0) or np.any(trans > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = trans.sum(axis=1)
        worst = np.abs(row_sums - 1.0).max()
        if worst > ROW_SUM_TOL:
            bad = int(np.abs(row_sums - 1.0).argmax())
            raise ValueError(
                f"row {bad} sums to {row_sums[bad]!r}, off by more than {ROW_SUM_TOL}"
            )
        pos = trans > 0.0
        recon = np.exp(log_trans[pos])
        if not np.allclose(recon, trans[pos], rtol=1e-9, atol=0.0):
            raise ValueError("log_trans is inconsistent with trans")
        object.__setattr__(self, "trans", _freeze(trans))
        object.__setattr__(self, "log_trans", _freeze(log_trans))

    @property
    def num_inputs(self) -> int:
        return self.trans.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.trans.shape[1]

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "DmcChannel":
        """Build from a linear transition matrix; zeros get -inf log entries."""
        trans = _floor_zeros(probs)
        return cls(trans=trans, log_trans=_log_with_neg_inf(trans))

    @classmethod
    def from_log_probs(cls, log_probs: np.ndarray) -> "DmcChannel":
        """Build from natural-log probabilities (finite values kept verbatim)."""
        log_trans = np.array(log_probs, dtype=np.float64)
        trans = _floor_zeros(np.exp(log_trans))
        return cls(trans=trans, log_trans=log_trans)


@dataclass(frozen=True)
class InputDistribution:
    """Probability mass function over the M channel inputs."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("input distribution must be 1-D")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", _freeze(probs))

    def __len__(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, m: int) -> "InputDistribution":
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def uniform_on(cls, mask: "SubsetMask") -> "InputDistribution":
        """Uniform over the selected inputs, zero elsewhere."""
        p = np.zeros(mask.m)
        p[mask.bits] = 1.0 / mask.k
        return cls(p)


def check_integer(value, name: str) -> None:
    """Raise ValueError unless ``value`` is an integer. A bool is refused:
    it is an Integral, and numpy would read True as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_subset_size(m: int, k) -> None:
    """The subset-size rule of every selection method: k is an integer in
    [2, m]. Raises ValueError otherwise."""
    check_integer(k, "k")
    if not 2 <= k <= m:
        raise ValueError(f"k = {k} is out of range: k must be in [2, {m}]")


def check_seed(seed, name: str) -> None:
    """The rule for every seed, called ``name`` in the message: a
    non-negative integer. Raises ValueError otherwise."""
    check_integer(seed, name)
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")


@dataclass(frozen=True, eq=False)
class SubsetMask:
    """Boolean selector over the M inputs; ``k``, its number of true entries,
    is derived and must pass ``check_subset_size``. Masks compare and hash by
    ``bits``."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(self.bits, dtype=bool)
        if bits.ndim != 1:
            raise ValueError("mask bits must be 1-D")
        object.__setattr__(self, "bits", _freeze(bits))
        check_subset_size(self.m, self.k)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubsetMask) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.bits))

    @property
    def indices(self) -> np.ndarray:
        """Selected input indices in ascending order."""
        return np.flatnonzero(self.bits)

    @classmethod
    def from_indices(cls, m: int, indices) -> "SubsetMask":
        items = list(indices)
        # bool is an Integral, and numpy would read True as index 1.
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in items):
            raise ValueError("mask indices must be integers")
        idx = np.asarray(items, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= m):
            raise ValueError("index out of range")
        bits = np.zeros(m, dtype=bool)
        bits[idx] = True
        k = int(bits.sum())
        if k != idx.size:
            raise ValueError(f"{idx.size - k} duplicate indices")
        return cls(bits)

    @classmethod
    def full(cls, m: int) -> "SubsetMask":
        return cls(np.ones(m, dtype=bool))


# ---------------------------------------------------------------------------
# JSON interchange: {"M": int, "L": int, "P": [[float; L]; M]}
# ---------------------------------------------------------------------------


def check_channel_dict(doc) -> list[str]:
    """Validate a channel JSON document; returns a list of problems (empty if OK)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    for key in ("M", "L", "P"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    m, l = doc["M"], doc["L"]
    if not isinstance(m, int) or not isinstance(l, int) or m < 2 or l < 2:
        return ["M and L must be integers >= 2"]
    try:
        p = np.asarray(doc["P"], dtype=np.float64)
    except (TypeError, ValueError):
        return ["P is not a numeric matrix"]
    if p.shape != (m, l):
        return [f"P has shape {p.shape}, expected ({m}, {l})"]
    if not np.all(np.isfinite(p)):
        return ["P contains non-finite entries"]
    neg = np.argwhere(p < 0.0)
    if neg.size:
        r, c = neg[0]
        problems.append(f"negative entry at row {r}, column {c}")
    row_sums = p.sum(axis=1)
    off = np.abs(row_sums - 1.0)
    if off.max() > LOADER_ROW_SUM_TOL:
        bad = int(off.argmax())
        problems.append(
            f"row {bad} sums to {row_sums[bad]!r}, deviation exceeds {LOADER_ROW_SUM_TOL}"
        )
    return problems


def channel_from_dict(doc) -> DmcChannel:
    """Parse and exactly renormalize a channel document; raises on defects."""
    problems = check_channel_dict(doc)
    if problems:
        raise ValueError("invalid channel: " + "; ".join(problems))
    p = np.asarray(doc["P"], dtype=np.float64)
    p = p / p.sum(axis=1, keepdims=True)
    return DmcChannel.from_probs(p)


def channel_to_dict(ch: DmcChannel) -> dict:
    return {
        "M": ch.num_inputs,
        "L": ch.num_outputs,
        "P": ch.trans.tolist(),
    }


def load_channel(path) -> DmcChannel:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return channel_from_dict(json.load(fh))


def save_channel(ch: DmcChannel, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(ch), fh)
        fh.write("\n")
