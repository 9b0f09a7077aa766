"""One-bit quantized QPSK MIMO channel: DMC construction and sampling.

The transmitter sends a QPSK vector over T antennas; each of the N receive
antennas hard-quantizes the real and imaginary parts of its output to a sign
bit. The resulting channel has 4^T inputs and 4^N outputs and is computed in
closed form from the normal CDF of the scaled noiseless components.

Output indexing: bit position 2*(i-1) + (0 for real, 1 for imaginary) holds
the sign of component (i, c) of receive antenna i, with bit 1 meaning +1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.special import log_ndtr

from .channel import DmcChannel, _freeze, check_bytes

# Digit d of a base-4 input index selects the QPSK point, antenna 1 most
# significant: 0 -> +1+1j, 1 -> +1-1j, 2 -> -1+1j, 3 -> -1-1j (pre-scaling).
QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128)


@dataclass(frozen=True)
class ComplexChannelMatrix:
    """Complex N x T channel gain matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("channel matrix must be 2-D and non-empty")
        if not np.all(np.isfinite(entries)):
            raise ValueError("channel matrix entries must be finite")
        object.__setattr__(self, "entries", _freeze(entries))

    @property
    def n_rx(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_dict(cls, doc: dict) -> "ComplexChannelMatrix":
        """Parse the JSON form {"re": [[...]], "im": [[...]]}."""
        try:
            re = np.asarray(doc["re"], dtype=np.float64)
            im = np.asarray(doc["im"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("H document needs numeric 're' and 'im' matrices") from exc
        if re.shape != im.shape:
            raise ValueError("'re' and 'im' must have the same shape")
        return cls(re + 1j * im)

    def to_dict(self) -> dict:
        return {"re": self.entries.real.tolist(), "im": self.entries.imag.tolist()}


def load_h_matrix(path) -> ComplexChannelMatrix:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return ComplexChannelMatrix.from_dict(json.load(fh))


def example_h4x4() -> ComplexChannelMatrix:
    """Bundled 4x4 example channel matrix (entries are integers / 100)."""
    data = resources.files("dmc_shaper").joinpath("assets/example_h4x4.json")
    return ComplexChannelMatrix.from_dict(json.loads(data.read_text(encoding="utf-8")))


@dataclass(frozen=True)
class SnrPoint:
    """Transmit power over noise variance, stored in dB; the linear ratio
    ``ptr_over_sigma2`` is derived and must be a finite positive float."""

    db: float

    def __post_init__(self) -> None:
        # A Python float raises OverflowError where a numpy scalar gives inf.
        object.__setattr__(self, "db", float(self.db))
        try:
            usable = 0.0 < self.ptr_over_sigma2 < math.inf
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(f"SNR of {self.db!r} dB has no finite positive linear value")

    @property
    def ptr_over_sigma2(self) -> float:
        return 10.0 ** (self.db / 10.0)

    @classmethod
    def from_db(cls, db: float) -> "SnrPoint":
        return cls(db)


def enumerate_qpsk_inputs(t: int) -> np.ndarray:
    """All 4^T QPSK input vectors as a (4^T, T) array, unit total energy.

    Input index i maps to its base-4 digits with antenna 1 most significant;
    entries are scaled by 1/sqrt(2T) so x^H x = 1 for every vector.
    """
    if not (1 <= t <= 8):
        raise ValueError(f"number of transmit antennas must be in [1, 8], got {t}")
    m = 4**t
    idx = np.arange(m)
    digits = (idx[:, None] // (4 ** np.arange(t - 1, -1, -1))[None, :]) % 4
    return QPSK_POINTS[digits] / np.sqrt(2.0 * t)


def qpsk_rotation(t: int) -> np.ndarray:
    """Input permutation of the rotation x -> jx on the 4^T QPSK inputs.

    Entry i is the index of j * x_i. Per antenna, j maps the points
    0, 1, 2, 3 to 2, 0, 3, 1. The rotation commutes with H and with the
    circular noise, and it maps the sign quadrants onto each other, so the
    transition rows of j * x are an output relabelling of those of x.
    """
    m = 4**t
    weights = 4 ** np.arange(t)
    digits = (np.arange(m)[:, None] // weights) % 4
    return np.array([2, 0, 3, 1])[digits] @ weights


def _signed_components(h: ComplexChannelMatrix, xs: np.ndarray) -> np.ndarray:
    """Real/imaginary parts of H x, interleaved per output bit position."""
    g = xs @ h.entries.T  # (..., N)
    comp = np.empty(g.shape[:-1] + (2 * h.n_rx,))
    comp[..., 0::2] = g.real
    comp[..., 1::2] = g.imag
    return comp


def build_quantized_mimo(h: ComplexChannelMatrix, snr: SnrPoint) -> DmcChannel:
    """Exact transition matrix of the one-bit quantized QPSK MIMO channel.

    P(y|x) is the product over receiver components of Phi(sqrt(2*snr) * s * g)
    with s the component's sign under y and g the noiseless component of H x.
    Computed in the log domain so high-SNR rows stay normalized. Refused
    by ``channel.check_bytes`` before any allocation when the float64 matrix
    and its sign table would exceed the byte budget; the build holds a few
    arrays of each size at once.
    """
    t, n = h.n_tx, h.n_rx
    m, l = 4**t, 4**n
    check_bytes(
        (m + 2 * n) * l * 8, f"a {m}x{l} transition matrix with its {l}x{2 * n} sign table"
    )
    xs = enumerate_qpsk_inputs(t)
    comp = _signed_components(h, xs)  # (M, 2N)
    args = np.sqrt(2.0 * snr.ptr_over_sigma2) * comp
    log_pos = log_ndtr(args)   # component bit 1 (sign +1)
    log_neg = log_ndtr(-args)  # component bit 0 (sign -1)
    bits = ((np.arange(l)[:, None] >> np.arange(2 * n)[None, :]) & 1).astype(np.float64)
    log_p = log_pos @ bits.T + log_neg @ (1.0 - bits).T
    return DmcChannel.from_log_probs(log_p)


def output_index_from_signs(comp_signs: np.ndarray) -> np.ndarray:
    """Pack per-component sign bits (last axis, True for +1) into output indices."""
    weights = 1 << np.arange(comp_signs.shape[-1])
    return comp_signs.astype(np.int64) @ weights


def sample_receive_many(
    h: ComplexChannelMatrix,
    xs: np.ndarray,
    snr: SnrPoint,
    rng: np.random.Generator,
) -> np.ndarray:
    """Quantized output indices for a batch of input vectors (rows of xs).

    Noise is circular complex Gaussian with variance 1/2 per real dimension
    (unit noise power), drawn from ``rng``, and the signal is scaled by
    sqrt(snr). Components exactly at zero quantize to +1.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.complex128))
    comp = _signed_components(h, xs)
    noise = rng.standard_normal(comp.shape) * np.sqrt(0.5)
    r = np.sqrt(snr.ptr_over_sigma2) * comp + noise
    return output_index_from_signs(r >= 0.0)
