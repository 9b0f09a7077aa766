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

from .channel import DmcChannel, SubsetMask, check_integer, check_seed
# bp_decode stays importable from here: perfbench/spans.py traces it by this name.
from .ldpc import LLR_CLIP, bp_decode, bp_decode_batch, build_ldpc, check_bits  # noqa: F401
from .mimo import (
    ComplexChannelMatrix,
    SnrPoint,
    build_quantized_mimo,
    enumerate_qpsk_inputs,
    sample_receive_many,
)


# Frames decoded together; bounds the (edges, frames) BP working arrays.
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
        sel = self.selected
        if not (
            isinstance(sel, np.ndarray)
            and sel.ndim == 1
            and np.issubdtype(sel.dtype, np.integer)
            and not (sel < 0).any()
            and np.unique(sel).size == sel.size
        ):
            raise ValueError(
                "selected inputs must be a 1-D integer array of distinct, non-negative indices"
            )
        k = sel.shape[0]
        # One input carries no bit: map_bits would group code bits by zero.
        if k < 2 or 2**self.bits_per_symbol != k:
            raise ValueError(f"subset size must be a power of two of at least 2, got {k}")

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
    """Map code bits along the last axis onto channel input indices, log2(K)
    bits per use: (..., n) 0/1 bits give (..., ceil(n / log2(K))) inputs.

    Each row is padded with zero bits on its own. Returns (global input
    indices, number of pad bits per row). A 0-d input has no last axis and is
    refused with ``ValueError``, as is an entry other than 0 or 1.
    """
    bits = np.asarray(codebits)
    if bits.ndim == 0:
        raise ValueError("code bits must have a last axis, got a 0-d array")
    check_bits(bits, "code bits")
    q = lab.bits_per_symbol
    n_pad = (-bits.shape[-1]) % q
    padded = np.zeros(bits.shape[:-1] + (bits.shape[-1] + n_pad,), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits
    groups = padded.reshape(padded.shape[:-1] + (-1, q))
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
    y = np.asarray(y_indices)
    # A cast would read 1.7 and True as output 1; an empty list is float.
    if y.size and y.dtype.kind not in "iu":
        raise ValueError("output indices must be integers")
    y = y.astype(np.intp, copy=False)
    if y.size and not (0 <= y.min() and y.max() < ch.num_outputs):
        raise ValueError(f"output indices must be in [0, {ch.num_outputs})")
    if lab.selected.max() >= ch.num_inputs:
        raise ValueError(f"selected inputs must be in [0, {ch.num_inputs})")
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
    """Error counts of one simulated SNR point, summed over the code seeds."""

    snr_db: float
    bits_sent: int
    bit_errors: int
    frame_errors: int
    frames: int
    code_rate: float

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0


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
    """Coded BER sweep: one record per SNR point, in ``snr_db_list`` order,
    holding the counts of every seed in ``seeds`` summed.

    Each frame draws a random message and then the channel noise from its
    own generator; only those draws stay per frame. Each batch of frames is
    encoded and mapped onto the selected inputs at once, its quantized
    outputs are looked up in the LLR table, and it is decoded. LLRs depend
    only on the point and the received output, so each point computes one
    table over all outputs with ``compute_llrs_block``, shared by every seed;
    log-sum-exp works row by row, so its entries equal the per-frame values
    bitwise. Frames are decoded together by ``bp_decode_batch``, in batches
    no larger than the frame errors still missing: a frame adds at most one,
    so a batch never runs past the stopping rule (``min_frame_errors`` or
    ``max_frames``) and the records equal those of a frame-by-frame loop.
    Frame RNG streams derive from (seed, frame index), message first and
    then noise, so the same noise is reused across SNR points, which must be
    distinct. Each seed's code is built once; all have the same rate, since
    the number of checks depends only on ``n`` and ``total_rate``.
    """
    seeds = tuple(seeds)
    check_integer(min_frame_errors, "min_frame_errors")
    check_integer(max_frames, "max_frames")
    if not seeds or min_frame_errors < 1 or max_frames < 1:
        raise ValueError("need a code seed, and min_frame_errors and max_frames of at least 1")
    for seed in seeds:
        check_seed(seed, "code seed")
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

    totals = np.zeros((len(points), 3), dtype=np.int64)  # frames, bit errors, frame errors
    for seed in seeds:
        code = build_ldpc(n, code_rate, seed=seed)
        k_msg = code.message_length
        for point, (snr, llr_table) in enumerate(zip(points, llr_tables)):
            bit_errors = 0
            frame_errors = 0
            frames = 0
            while frames < max_frames and frame_errors < min_frame_errors:
                batch = min(max_frames - frames, min_frame_errors - frame_errors, _FRAME_BATCH)
                rngs = [np.random.default_rng([seed, frames + i]) for i in range(batch)]
                messages = np.array([r.integers(0, 2, size=k_msg, dtype=np.uint8) for r in rngs])
                symbols, _ = map_bits(code.encode(messages), lab)
                y = np.array(
                    [sample_receive_many(h, table[s], snr, r) for s, r in zip(symbols, rngs)]
                )
                llrs = llr_table[y].reshape(batch, -1)[:, : code.n]
                decoded = bp_decode_batch(code, llrs)
                errs = (decoded.bits[:, :k_msg] != messages).sum(axis=1)
                bit_errors += int(errs.sum())
                frame_errors += int(np.count_nonzero(errs))
                frames += batch
            totals[point] += (frames, bit_errors, frame_errors)
    return [
        BerRecord(
            snr_db=snr.db,
            bits_sent=frames * k_msg,
            bit_errors=bit_errors,
            frame_errors=frame_errors,
            frames=frames,
            code_rate=code.rate,
        )
        for snr, (frames, bit_errors, frame_errors) in zip(points, totals.tolist())
    ]
