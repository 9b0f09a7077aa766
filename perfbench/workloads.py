"""The benchmark's workloads: inputs, one round of operations, and checks.

A round is the fixed list of operations a workload repeats; every run does
whole rounds, so each run attempts the same operations in the same shares.
Inputs come from the benchmark seed only. Checks compare against
``oracle`` (computations made apart from the program) or against properties
the method must have, never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
MASK_K32 = HERE / "inputs" / "mask_k32.json"

# Tolerances of the checks. VALUE_TOL covers values the program and the
# oracle compute by different but exact formulas; BA_TOL is the sweep's
# default capacity bracket.
VALUE_TOL = 1e-9
BA_TOL = 1e-6
RELAXATION_TOL = 1e-5
LLR_TOL = 1e-8


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns a list of problems."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    group: str = ""
    units: int = 0


def _gaussian_h(d, rng: np.random.Generator, n: int, t: int):
    gains = (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) * math.sqrt(0.5)
    return d.mimo.ComplexChannelMatrix(gains)


def _close(name: str, got: float, want: float, tol: float = VALUE_TOL) -> list[str]:
    if abs(got - want) > tol:
        return [f"{name} is {float(got)!r}, reference {float(want)!r}"]
    return []


def _valid_subset(name: str, mask, m: int, k: int) -> list[str]:
    idx = np.asarray(mask.indices)
    if mask.m != m or idx.shape != (k,) or np.unique(idx).shape != (k,):
        return [f"{name} mask is not a {k}-subset of {m} inputs: {idx.tolist()}"]
    return []


# ---------------------------------------------------------------------------
# sweep_m256: one `dmc-shaper sweep` call per SNR point on the bundled 4x4 H
# ---------------------------------------------------------------------------

SWEEP_SNRS = (0.0,)
SWEEP_KS = (16, 64)
SWEEP_METHODS = ("sdp", "bsa", "full")


def sweep_m256(d, seed: int, quick: bool, scratch: Path) -> list[Op]:
    if quick:
        h = _gaussian_h(d, np.random.default_rng([2560, seed]), 2, 2)
        h_spec = str(scratch / f"sweep_h_seed{seed}.json")
        Path(h_spec).write_text(json.dumps(h.to_dict()), encoding="utf-8")
        ks = (4, 8)
    else:
        h = d.mimo.example_h4x4()
        h_spec = "bundled"
        ks = SWEEP_KS
    entries = np.array(h.entries)
    m = 4**h.n_tx

    def run(snr: float) -> str:
        argv = [
            "sweep", "--h-matrix", h_spec, "--snr-db", repr(snr),
            "--k", ",".join(map(str, ks)), "--methods", ",".join(SWEEP_METHODS),
            "--seed", str(seed),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = d.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sweep exited with status {code}")
        return out.getvalue()

    def check(snr: float, text: str) -> list[str]:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        header = ["snr_db", "capacity_ba", "rate_uniform_full"]
        for k in ks:
            for method in SWEEP_METHODS:
                header += [f"{c}_k{k}_{method}" for c in ("rate", "cutoff", "ser")]
        if len(lines) != 2 or lines[0].split(",")[: len(header)] != header:
            return [f"unexpected CSV layout: {lines[:1]}"]
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        law = oracle.channel_law(entries, snr)
        program = d.mimo.build_quantized_mimo(h, d.mimo.SnrPoint.from_db(snr)).trans
        problems = []
        if not np.allclose(program, law, rtol=1e-9, atol=1e-12):
            problems.append(
                f"channel law differs by {np.abs(program - law).max():.3e} at {snr} dB"
            )
        full = oracle.subset_rates(law, np.arange(m)[None, :])[0]
        problems += _close("rate_uniform_full", row["rate_uniform_full"], full)
        cap = row["capacity_ba"]
        dual = oracle.dual_capacity_bound(law)
        if not (full - BA_TOL <= cap <= dual + VALUE_TOL):
            problems.append(f"capacity {cap!r} outside [{float(full)!r}, {dual!r}]")
        for k in ks:
            for method in SWEEP_METHODS:
                rate = row[f"rate_k{k}_{method}"]
                cutoff = row[f"cutoff_k{k}_{method}"]
                ser = row[f"ser_k{k}_{method}"]
                size = m if method == "full" else k
                top = min(math.log2(size), cap + BA_TOL)
                if not (cutoff <= rate + VALUE_TOL and rate <= top + VALUE_TOL):
                    problems.append(
                        f"k={k} {method}: cutoff {cutoff!r}, rate {rate!r}, bound {top!r}"
                    )
                if not 0.0 <= ser <= 1.0:
                    problems.append(f"k={k} {method}: SER {ser!r} outside [0, 1]")
        return problems

    ops = [
        Op(f"sweep {snr:g} dB", lambda s=snr: run(s), lambda out, s=snr: check(s, out))
        for snr in SWEEP_SNRS
    ]
    return ops


# ---------------------------------------------------------------------------
# desk_m16: the 50 desk-scale acceptance instances (T=N=2, 10 dB, K=4)
# ---------------------------------------------------------------------------

DESK_INSTANCES = tuple(range(50))
DESK_K = 4
DESK_SNR_DB = 10.0


def desk_h(d, instance: int):
    """The acceptance suite's seeded T=N=2 channel for one instance."""
    return _gaussian_h(d, np.random.default_rng([9000, instance]), 2, 2)


def desk_m16(d, seed: int, quick: bool, scratch: Path) -> list[Op]:
    instances = (0, 21) if quick else DESK_INSTANCES
    snr = d.mimo.SnrPoint.from_db(DESK_SNR_DB)
    ops: list[Op] = []
    for inst in instances:
        h = desk_h(d, inst)
        ch = d.mimo.build_quantized_mimo(h, snr)
        ref: dict = {}

        def reference(h=h, ref=ref) -> dict:
            # Brute force over all C(16, 4) subsets, made once per run.
            if not ref:
                law = oracle.channel_law(np.array(h.entries), DESK_SNR_DB)
                subsets = oracle.all_subsets(law.shape[0], DESK_K)
                ref["law"] = law
                for crit, fn in oracle.CRITERIA.items():
                    vals = fn(law, subsets)
                    ref[crit] = vals.max() if oracle.MAXIMIZE[crit] else vals.min()
                ref["bool_min"] = oracle.boolean_minimum(law, DESK_K)
            return ref

        def exhaustive(crit: str, ch=ch):
            return d.subset_search.exhaustive_select(ch, DESK_K, crit)

        def check_exhaustive(out, crit: str, reference=reference) -> list[str]:
            mask, value = out
            ref = reference()
            got = oracle.CRITERIA[crit](ref["law"], mask.indices[None, :])[0]
            return (
                _valid_subset(crit, mask, 16, DESK_K)
                + _close(f"{crit} optimum", value, ref[crit])
                + _close(f"{crit} of the returned mask", got, ref[crit])
            )

        rng_seed = inst + len(DESK_INSTANCES) * seed

        def sdp(ch=ch, rng_seed=rng_seed):
            cfg = d.sdp.RoundingConfig(n_rand=100, rng_seed=rng_seed)
            return d.sdp.sdp_select(ch, DESK_K, tol=1e-8, cfg=cfg, max_iter=20_000)

        def check_sdp(res, reference=reference) -> list[str]:
            ref = reference()
            got = oracle.subset_cutoffs(ref["law"], res.mask.indices[None, :])[0]
            problems = _valid_subset("sdp", res.mask, 16, DESK_K)
            problems += _close("sdp cutoff rate", res.cutoff_rate_bits, got)
            if res.sdp_objective > ref["bool_min"] + RELAXATION_TOL:
                problems.append(
                    f"relaxation {res.sdp_objective!r} above the Boolean minimum "
                    f"{float(ref['bool_min'])!r}"
                )
            if got > ref["cutoff"] + VALUE_TOL:
                problems.append(f"sdp cutoff {float(got)!r} beats the optimum {float(ref['cutoff'])!r}")
            return problems

        def bsa(ch=ch, rng_seed=rng_seed):
            return d.subset_search.bsa_select(
                ch, d.subset_search.BsaConfig(k=DESK_K, restarts=20, rng_seed=rng_seed)
            )

        def check_bsa(res, reference=reference) -> list[str]:
            ref = reference()
            got = oracle.subset_sers(ref["law"], res.mask.indices[None, :])[0]
            problems = _valid_subset("bsa", res.mask, 16, DESK_K)
            problems += _close("bsa SER", res.ser, got)
            if got < ref["ser"] - VALUE_TOL:
                problems.append(f"bsa SER {float(got)!r} below the optimum {float(ref['ser'])!r}")
            return problems

        name = f"desk {inst}"
        for crit in oracle.CRITERIA:
            ops.append(
                Op(
                    f"{name} exhaustive {crit}",
                    lambda c=crit, f=exhaustive: f(c),
                    lambda out, c=crit, f=check_exhaustive: f(out, c),
                )
            )
        ops.append(Op(f"{name} sdp", sdp, check_sdp))
        ops.append(Op(f"{name} bsa", bsa, check_bsa))
    return ops


# ---------------------------------------------------------------------------
# coded_link: run_coded_ber with a fixed K=32 mask and the full set
# ---------------------------------------------------------------------------

CODED_WATERFALL = (0.0, 5.0)
CODED_CLEAR = (15.0, 20.0)
CODED_FRAMES = 50
CODED_N = 250
CODED_TOTAL_RATE = 2.5
CLEAR_BER_LIMIT = 1e-3
LLR_SAMPLES = 64


def load_mask_k32(d):
    doc = json.loads(MASK_K32.read_text(encoding="utf-8"))
    idx = doc["mask"]
    if len(set(idx)) != doc["k"] or len(idx) != doc["k"]:
        raise ValueError(f"{MASK_K32} does not hold {doc['k']} distinct indices")
    return d.channel.SubsetMask.from_indices(256, idx)


def coded_link(d, seed: int, quick: bool, scratch: Path) -> list[Op]:
    h = d.mimo.example_h4x4()
    entries = np.array(h.entries)
    masks = {"k32": load_mask_k32(d), "k256": d.channel.SubsetMask.full(256)}
    frames = 2 if quick else CODED_FRAMES
    points = [(s, "waterfall") for s in CODED_WATERFALL] + [(s, "clear") for s in CODED_CLEAR]
    if quick:
        points = [points[0], points[-1]]

    def run(mask, snr: float):
        return d.link.run_coded_ber(
            h, mask, [snr], n=CODED_N, total_rate=CODED_TOTAL_RATE, seeds=(seed,),
            min_frame_errors=frames + 1, max_frames=frames,
        )

    def check(records, label: str, mask, snr: float, regime: str) -> list[str]:
        if len(records) != 1:
            return [f"{len(records)} records for one SNR point"]
        rec = records[0]
        q = mask.k.bit_length() - 1
        k_msg = oracle.message_length(CODED_N, CODED_TOTAL_RATE / q)
        problems = []
        if rec.frames != frames or rec.bits_sent != frames * k_msg:
            problems.append(
                f"{rec.frames} frames, {rec.bits_sent} bits; want {frames} x {k_msg}"
            )
        if not 0 <= rec.bit_errors <= rec.bits_sent or not 0 <= rec.frame_errors <= rec.frames:
            problems.append(f"error counts out of range: {rec}")
        elif rec.bits_sent and rec.ber != rec.bit_errors / rec.bits_sent:
            problems.append(f"BER {rec.ber!r} is not bit_errors / bits_sent")
        if label == "k32" and regime == "clear" and not rec.ber < CLEAR_BER_LIMIT:
            problems.append(f"K=32 BER {rec.ber!r} at {snr} dB is not below {CLEAR_BER_LIMIT}")
        # Log-odds on sampled outputs against the analytic channel law.
        rng = np.random.default_rng([seed, mask.k, 1000 + int(round(10 * snr))])
        y = rng.integers(0, 256, size=LLR_SAMPLES)
        ch = d.mimo.build_quantized_mimo(h, d.mimo.SnrPoint.from_db(snr))
        lab = d.link.SymbolLabeling.from_mask(mask)
        got = d.link.compute_llrs_block(ch, lab, y)
        want = np.clip(oracle.bit_llrs(oracle.log_channel_law(entries, snr), mask.indices, y), -40.0, 40.0)
        if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=LLR_TOL):
            problems.append(f"LLRs differ from the channel law's bit log-odds at {snr} dB")
        return problems

    ops = []
    for label, mask in masks.items():
        for snr, regime in points:
            ops.append(
                Op(
                    f"coded {label} {snr:g} dB",
                    lambda m=mask, s=snr: run(m, s),
                    lambda out, l=label, m=mask, s=snr, r=regime: check(out, l, m, s, r),
                    group=regime,
                    units=frames,
                )
            )
    return ops


# ---------------------------------------------------------------------------
# search_m64: exhaustive search on a seeded T=N=3 channel (M=L=64), K=4
# ---------------------------------------------------------------------------

SEARCH_SNR_DB = 10.0
SEARCH_K = 4
SEARCH_SAMPLES = 2000


def search_m64(d, seed: int, quick: bool, scratch: Path) -> list[Op]:
    t = 2 if quick else 3
    h = _gaussian_h(d, np.random.default_rng([6400, seed]), t, t)
    ch = d.mimo.build_quantized_mimo(h, d.mimo.SnrPoint.from_db(SEARCH_SNR_DB))
    m = ch.num_inputs
    ref: dict = {}
    optimum: dict[str, float] = {}

    def reference() -> dict:
        if not ref:
            ref["law"] = oracle.channel_law(np.array(h.entries), SEARCH_SNR_DB)
            ref["sample"] = oracle.random_subsets(
                m, SEARCH_K, SEARCH_SAMPLES, np.random.default_rng([6401, seed])
            )
        return ref

    def check_exhaustive(out, crit: str) -> list[str]:
        mask, value = out
        problems = _valid_subset(crit, mask, m, SEARCH_K)
        if problems:
            return problems
        fn = oracle.CRITERIA[crit]
        law = reference()["law"]
        own = fn(law, mask.indices[None, :])[0]
        problems += _close(f"{crit} of the returned mask", value, own)
        sign = 1.0 if oracle.MAXIMIZE[crit] else -1.0
        for label, rivals in (
            ("single swap", oracle.single_swaps(mask.indices, m)),
            ("sampled subset", reference()["sample"]),
        ):
            best = (sign * fn(law, rivals)).max()
            if best > sign * own + VALUE_TOL:
                problems.append(f"a {label} beats the {crit} optimum: {float(sign * best)!r} vs {float(own)!r}")
        if not problems:
            optimum[crit] = own
        return problems

    def bsa():
        return d.subset_search.bsa_select(
            ch, d.subset_search.BsaConfig(k=SEARCH_K, restarts=20, rng_seed=seed)
        )

    def check_bsa(res) -> list[str]:
        got = oracle.subset_sers(reference()["law"], res.mask.indices[None, :])[0]
        problems = _valid_subset("bsa", res.mask, m, SEARCH_K) + _close("bsa SER", res.ser, got)
        if "ser" in optimum and got < optimum["ser"] - VALUE_TOL:
            problems.append(f"bsa SER {float(got)!r} below the exhaustive optimum {float(optimum['ser'])!r}")
        return problems

    ops = [
        Op(
            f"exhaustive {crit}",
            lambda c=crit: d.subset_search.exhaustive_select(ch, SEARCH_K, c),
            lambda out, c=crit: check_exhaustive(out, c),
            group="exhaustive",
            units=math.comb(m, SEARCH_K),
        )
        for crit in oracle.CRITERIA
    ]
    ops.append(Op("bsa", bsa, check_bsa))
    return ops


WORKLOADS = {
    "sweep_m256": sweep_m256,
    "desk_m16": desk_m16,
    "coded_link": coded_link,
    "search_m64": search_m64,
}
