"""Coded Monte-Carlo link over the quantized MIMO channel.

Code bits are mapped log2(K) at a time onto the selected channel inputs
(ascending input index = natural binary label, most significant bit first).
The receiver computes per-bit log-odds from the exact channel law under a
uniform symbol prior and hands them to the sum-product decoder; detection and
decoding stay decoupled. A ``BerRecord`` stores counts and derives ``ber``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .channel import DmcChannel, SubsetMask
# bp_decode stays importable from here: perfbench/spans.py traces it by this name.
from .ldpc import LLR_CLIP, bp_decode, bp_decode_batch, build_ldpc  # noqa: F401
from .mimo import (
    ComplexChannelMatrix,
    SnrPoint,
    build_quantized_mimo,
    enumerate_qpsk_inputs,
    sample_receive_many,
)


# Frames decoded together; bounds the (frames, edges) BP working arrays.
_FRAME_BATCH = 64


@dataclass(frozen=True)
class SymbolLabeling:
    """Bijection between the K selected inputs and log2(K)-bit labels.

    Input ``selected[r]`` carries label r (``from_mask`` lists the mask's
    inputs in ascending order); bit j of a label is bit (q-1-j) of r, i.e. the
    first bit of a group is the most significant.
    """

    selected: np.ndarray

    def __post_init__(self) -> None:
        k = self.selected.shape[0]
        if 2**self.bits_per_symbol != k:
            raise ValueError(f"subset size must be a power of two, got {k}")

    @classmethod
    def from_mask(cls, mask: SubsetMask) -> "SymbolLabeling":
        return cls(selected=mask.indices)

    @property
    def bits_per_symbol(self) -> int:
        return self.selected.shape[0].bit_length() - 1

    def label_bits(self) -> np.ndarray:
        """(q, K) matrix: entry [j, r] is bit j of label r."""
        q = self.bits_per_symbol
        ranks = np.arange(self.selected.shape[0])
        return ((ranks[None, :] >> (q - 1 - np.arange(q))[:, None]) & 1).astype(bool)


def map_bits(codebits: np.ndarray, lab: SymbolLabeling) -> tuple[np.ndarray, int]:
    """Map a bit vector onto channel input indices, log2(K) bits per use.

    Returns (global input indices, number of zero pad bits appended).
    """
    raw = np.asarray(codebits).ravel()
    if not np.isin(raw, (0, 1)).all():
        raise ValueError("code bits must be 0 or 1")
    bits = raw.astype(np.uint8)
    q = lab.bits_per_symbol
    n_pad = (-bits.shape[0]) % q
    if n_pad:
        bits = np.concatenate((bits, np.zeros(n_pad, dtype=np.uint8)))
    groups = bits.reshape(-1, q)
    ranks = groups @ (1 << np.arange(q - 1, -1, -1))
    return lab.selected[ranks], n_pad


def compute_llrs_block(
    ch: DmcChannel, lab: SymbolLabeling, y_indices: np.ndarray
) -> np.ndarray:
    """Bit-1 log-odds for each received output index, shape (n_uses, q).

    Uniform prior over the selected symbols; evaluated with log-sum-exp and
    clipped to +/- LLR_CLIP. Outputs unreachable from every selected symbol
    yield zero LLRs (with a warning).
    """
    y = np.asarray(y_indices, dtype=np.intp)
    if y.size and not (0 <= y.min() and y.max() < ch.num_outputs):
        raise ValueError(f"output indices must be in [0, {ch.num_outputs})")
    log_p = ch.log_trans[np.ix_(lab.selected, y)].T  # (n_uses, K)
    bits = lab.label_bits()
    q = lab.bits_per_symbol
    llrs = np.empty((y.shape[0], q))
    with np.errstate(invalid="ignore"):
        for j in range(q):
            ones = logsumexp(log_p[:, bits[j]], axis=1)
            zeros = logsumexp(log_p[:, ~bits[j]], axis=1)
            llrs[:, j] = ones - zeros
    dead = ~np.isfinite(log_p.max(axis=1))
    if dead.any():
        warnings.warn(
            "received outputs with zero likelihood under every selected symbol; "
            "their LLRs are set to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        llrs[dead] = 0.0
    return np.clip(llrs, -LLR_CLIP, LLR_CLIP)


@dataclass(frozen=True)
class BerRecord:
    """Error counts of one simulated SNR point (one code seed)."""

    snr_db: float
    bits_sent: int
    bit_errors: int
    frame_errors: int
    frames: int
    code_rate: float
    seed: int | None = None

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0


def average_ber_records(records: list[BerRecord]) -> list[BerRecord]:
    """Merge per-seed records into one record per SNR point, in first-seen order."""
    by_snr: dict[float, list[BerRecord]] = {}
    for rec in records:
        by_snr.setdefault(rec.snr_db, []).append(rec)
    out = []
    for snr_db, group in by_snr.items():
        out.append(
            BerRecord(
                snr_db=snr_db,
                bits_sent=sum(r.bits_sent for r in group),
                bit_errors=sum(r.bit_errors for r in group),
                frame_errors=sum(r.frame_errors for r in group),
                frames=sum(r.frames for r in group),
                code_rate=group[0].code_rate,
                seed=None,
            )
        )
    return out


def run_coded_ber(
    h: ComplexChannelMatrix,
    mask: SubsetMask,
    snr_db_list,
    n: int = 250,
    total_rate: float = 2.5,
    seeds=(0,),
    min_frame_errors: int = 50,
    max_frames: int = 10**6,
) -> list[BerRecord]:
    """Coded BER sweep: one record per (seed, SNR point).

    Per frame: encode a random message, map code bits onto selected inputs,
    draw the quantized outputs, look up their LLRs, and decode. LLRs depend
    only on the point and the received output, so each point computes one
    table over all outputs with ``compute_llrs_block``, shared by every seed;
    log-sum-exp works row by row, so its entries equal the per-frame values
    bitwise. Frames are decoded together by ``bp_decode_batch``, in batches
    no larger than the frame errors still missing: a frame adds at most one,
    so a batch never runs past the stopping rule (``min_frame_errors`` or
    ``max_frames``) and the records equal those of a frame-by-frame loop.
    Frame RNG streams derive from (seed, frame index), message first and
    then noise, so the same noise is reused across SNR points, which must be
    distinct.
    """
    seeds = tuple(seeds)
    if not seeds or min_frame_errors < 1 or max_frames < 1:
        raise ValueError("need a code seed, and min_frame_errors and max_frames of at least 1")
    if min(seeds) < 0:
        raise ValueError(f"code seeds must be non-negative, got {list(seeds)}")
    snrs = [float(snr_db) for snr_db in snr_db_list]
    if len(set(snrs)) != len(snrs):
        raise ValueError(f"SNR points must be distinct, got {snrs}")
    points = [SnrPoint.from_db(snr_db) for snr_db in snrs]
    lab = SymbolLabeling.from_mask(mask)
    q = lab.bits_per_symbol
    code_rate = total_rate / q
    if not (0.0 < code_rate < 1.0):
        raise ValueError(
            f"total rate {total_rate} with {q} bits/use needs code rate in (0,1)"
        )
    table = enumerate_qpsk_inputs(h.n_tx)
    if mask.m != table.shape[0]:
        raise ValueError("mask length does not match the QPSK input alphabet")

    llr_tables = []
    for snr in points:
        ch = build_quantized_mimo(h, snr)
        llr_tables.append(compute_llrs_block(ch, lab, np.arange(ch.num_outputs)))

    records: list[BerRecord] = []
    for seed in seeds:
        code = build_ldpc(n, code_rate, seed=seed)
        k_msg = code.message_length
        for snr, llr_table in zip(points, llr_tables):
            bit_errors = 0
            frame_errors = 0
            frames = 0
            while frames < max_frames and frame_errors < min_frame_errors:
                batch = min(max_frames - frames, min_frame_errors - frame_errors, _FRAME_BATCH)
                messages = np.empty((batch, k_msg), dtype=np.uint8)
                llrs = np.empty((batch, code.n))
                for i in range(batch):
                    rng = np.random.default_rng([seed, frames + i])
                    messages[i] = rng.integers(0, 2, size=k_msg, dtype=np.uint8)
                    symbols, _ = map_bits(code.encode(messages[i]), lab)
                    y = sample_receive_many(h, table[symbols], snr, rng)
                    llrs[i] = llr_table[y].ravel()[: code.n]
                decoded = bp_decode_batch(code, llrs)
                errs = (decoded.bits[:, code.message_positions] != messages).sum(axis=1)
                bit_errors += int(errs.sum())
                frame_errors += int(np.count_nonzero(errs))
                frames += batch
            records.append(
                BerRecord(
                    snr_db=snr.db,
                    bits_sent=frames * k_msg,
                    bit_errors=bit_errors,
                    frame_errors=frame_errors,
                    frames=frames,
                    code_rate=code.rate,
                    seed=int(seed),
                )
            )
    return records
