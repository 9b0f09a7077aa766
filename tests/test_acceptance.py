"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

The verdict lines appear in the pytest terminal summary (see conftest), so a
plain `pytest tests/test_acceptance.py -v` shows them. Shared fixtures (the
bundled-H sweep, the 50 desk-scale instances, the coded BER curves) are
computed once and their cost counts toward every criterion that uses them.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

import dmc_shaper as d
from dmc_shaper.cli import main as cli_main
from dmc_shaper.sdp import build_gram

SNR_GRID = [-10.0 + 2.5 * i for i in range(15)]  # -10 .. 25 dB step 2.5
BA_TOL = 1e-6
SWEEP_SDP_TOL = 1e-4
DESK_CHANNELS = 50
CODED_SNR_GRID = [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
CODED_FRAME_CAP = 1500


# Lines collected here are echoed in the pytest terminal summary (conftest),
# so the per-criterion verdicts are visible even with output capture on.
CRITERION_LINES: list[str] = []


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    CRITERION_LINES.append(line)
    print("\n" + line)
    assert ok, f"criterion {num} failed: {detail}"


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bsc(p: float) -> d.DmcChannel:
    return d.DmcChannel.from_probs(np.array([[1 - p, p], [p, 1 - p]]))


def random_small_h(seed: int) -> d.ComplexChannelMatrix:
    rng = np.random.default_rng([9000, seed])
    gains = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * np.sqrt(0.5)
    return d.ComplexChannelMatrix(gains)


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_data():
    """Capacity, full-set rate, and selected-subset rates on the bundled H."""
    t0 = time.time()
    h = d.example_h4x4()
    rows = []
    for idx, snr_db in enumerate(SNR_GRID):
        ch = d.build_quantized_mimo(h, d.SnrPoint.from_db(snr_db))
        ba = d.blahut_arimoto(ch, tol=BA_TOL, max_iter=400_000)
        full = d.SubsetMask.full(ch.num_inputs)
        entry = {
            "snr_db": snr_db,
            "ba_converged": ba.converged,
            "capacity": ba.capacity_bits,
            "rate_full": d.uniform_subset_rate(ch, full),
            "cutoff_full": d.cutoff_rate(ch, full),
        }
        for k in (16, 64):
            res = d.sdp_select(
                ch, k, tol=SWEEP_SDP_TOL,
                cfg=d.RoundingConfig(n_rand=100, rng_seed=1000 * (idx + 1) + k),
                max_iter=5000,
            )
            entry[f"rate_{k}"] = d.uniform_subset_rate(ch, res.mask)
            entry[f"cutoff_{k}"] = res.cutoff_rate_bits
        rows.append(entry)
    return {"rows": rows, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def desk_instances():
    """50 seeded random T=N=2 channels at 10 dB with K=4 selections."""
    t0 = time.time()
    combos = np.array(list(itertools.combinations(range(16), 4)), dtype=np.intp)
    out = []
    for seed in range(DESK_CHANNELS):
        ch = d.build_quantized_mimo(random_small_h(seed), d.SnrPoint.from_db(10.0))
        m_rate, opt_rate = d.exhaustive_select(ch, 4, "rate")
        m_cut, opt_cutoff = d.exhaustive_select(ch, 4, "cutoff")
        m_ser, opt_ser = d.exhaustive_select(ch, 4, "ser")
        sdp_res = d.sdp_select(
            ch, 4, tol=1e-8,
            cfg=d.RoundingConfig(n_rand=100, rng_seed=seed), max_iter=20_000,
        )
        bsa_res = d.bsa_select(ch, d.BsaConfig(k=4, restarts=20, rng_seed=seed))
        a = build_gram(ch)
        bool_min = float(
            a[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2)).min()
        )
        out.append(
            {
                "channel": ch,
                "opt_rate": opt_rate,
                "opt_cutoff": opt_cutoff,
                "opt_ser": opt_ser,
                "mask_rate": m_rate,
                "mask_cutoff": m_cut,
                "mask_ser": m_ser,
                "sdp": sdp_res,
                "bsa": bsa_res,
                "bool_min": bool_min,
            }
        )
    return {"instances": out, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def coded_curves():
    """Coded BER sweeps for the selected K=32 subset and the K=256 full set."""
    t0 = time.time()
    h = d.example_h4x4()
    ch15 = d.build_quantized_mimo(h, d.SnrPoint.from_db(15.0))
    sel = d.sdp_select(
        ch15, 32, tol=SWEEP_SDP_TOL,
        cfg=d.RoundingConfig(n_rand=100, rng_seed=8), max_iter=5000,
    )
    k32 = d.run_coded_ber(
        h, sel.mask, CODED_SNR_GRID, n=250, total_rate=2.5, seeds=(0,),
        min_frame_errors=50, max_frames=CODED_FRAME_CAP,
    )
    k256 = d.run_coded_ber(
        h, d.SubsetMask.full(256), CODED_SNR_GRID, n=250, total_rate=2.5,
        seeds=(0,), min_frame_errors=50, max_frames=CODED_FRAME_CAP,
    )
    return {"k32": k32, "k256": k256, "mask32": sel.mask, "elapsed": time.time() - t0}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_oracles():
    t0 = time.time()
    problems = []
    for p in (0.01, 0.1, 0.25):
        res = d.blahut_arimoto(bsc(p), tol=1e-8, max_iter=100_000)
        want = 1.0 - binary_entropy(p)
        if abs(res.capacity_bits - want) > 1e-6:
            problems.append(f"BSC({p}) capacity off by {abs(res.capacity_bits - want):.2e}")
    for eps in (0.1, 0.3, 0.5):
        ch = d.DmcChannel.from_probs(
            np.array([[1 - eps, eps, 0.0], [0.0, eps, 1 - eps]])
        )
        res = d.blahut_arimoto(ch, tol=1e-8, max_iter=100_000)
        if abs(res.capacity_bits - (1 - eps)) > 1e-6:
            problems.append(f"BEC({eps}) capacity off by {abs(res.capacity_bits - (1 - eps)):.2e}")
    r0 = d.cutoff_rate(bsc(0.1), d.SubsetMask.full(2))
    want_r0 = 1.0 - math.log2(1.6)
    if abs(r0 - want_r0) > 1e-9:
        problems.append(f"BSC(0.1) cutoff off by {abs(r0 - want_r0):.2e}")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.3f}s >= 1s")
    report(1, not problems, f"closed forms in {elapsed:.3f}s" if not problems else "; ".join(problems))


@pytest.mark.slow
def test_criterion_2_rate_ordering_on_bundled_h(sweep_data):
    problems = []
    for row in sweep_data["rows"]:
        cap = row["capacity"]
        if not row["ba_converged"]:
            problems.append(f"BA did not converge at {row['snr_db']} dB")
        if cap > 8.0 + 1e-12:
            problems.append(f"capacity {cap} > 8 bits at {row['snr_db']} dB")
        configs = [("full", row["rate_full"], row["cutoff_full"])]
        configs += [(f"K={k}", row[f"rate_{k}"], row[f"cutoff_{k}"]) for k in (16, 64)]
        for name, rate, cutoff in configs:
            if cutoff > rate + 1e-9:
                problems.append(
                    f"{name} at {row['snr_db']} dB: cutoff {cutoff} > rate {rate}"
                )
            if rate > cap + BA_TOL + 1e-9:
                problems.append(
                    f"{name} at {row['snr_db']} dB: rate {rate} > capacity {cap}"
                )
    elapsed = sweep_data["elapsed"]
    if elapsed >= 600:
        problems.append(f"runtime {elapsed:.0f}s >= 600s")
    report(
        2,
        not problems,
        f"orderings hold at {len(sweep_data['rows'])} SNR points in {elapsed:.0f}s"
        if not problems
        else "; ".join(problems[:4]),
    )


@pytest.mark.slow
def test_criterion_3_fig2_qualitative(sweep_data):
    rows = sweep_data["rows"]
    gain_points = [
        r["snr_db"] for r in rows if r["snr_db"] >= 10.0 and r["rate_64"] > r["rate_full"]
    ]
    close_points = [
        r["snr_db"]
        for r in rows
        if r["capacity"] - r["rate_16"] <= 0.1 and r["capacity"] - r["rate_full"] > 0.1
    ]
    elapsed = sweep_data["elapsed"]
    ok = bool(gain_points) and bool(close_points) and elapsed < 600
    report(
        3,
        ok,
        f"K=64 beats full set at {gain_points} dB; "
        f"K=16 within 0.1 bit of capacity (full set not) at {close_points} dB "
        f"(shared sweep {elapsed:.0f}s)",
    )


def test_criterion_4_oracle_equivalence(desk_instances):
    inst = desk_instances["instances"]
    sdp_hits = sum(
        1 for e in inst if e["sdp"].cutoff_rate_bits >= 0.98 * e["opt_cutoff"]
    )
    bsa_hits = sum(1 for e in inst if e["bsa"].ser <= e["opt_ser"] + 1e-12)
    elapsed = desk_instances["elapsed"]
    ok = sdp_hits >= 45 and bsa_hits >= 45 and elapsed < 300
    report(
        4,
        ok,
        f"sdp within 98% of optimum on {sdp_hits}/50, "
        f"bsa optimal on {bsa_hits}/50, in {elapsed:.0f}s",
    )


def test_criterion_5_relaxation_bound(desk_instances):
    inst = desk_instances["instances"]
    violations = [
        (i, e["sdp"].sdp_objective - e["bool_min"])
        for i, e in enumerate(inst)
        if e["sdp"].sdp_objective > e["bool_min"] + 1e-5
    ]
    worst = max(e["sdp"].sdp_objective - e["bool_min"] for e in inst)
    report(
        5,
        not violations,
        f"tr(B S) <= boolean minimum + 1e-5 on all 50 instances "
        f"(worst margin {worst:.2e})"
        if not violations
        else f"violated on {violations[:3]}",
    )


def test_certified_bound_below_boolean_minimum(desk_instances):
    # lower_bound is b^T y at a dual point whose slack's least eigenvalue
    # enters as a correction, so it can exceed the Boolean minimum only by
    # rounding: float_slack is about 1,000 ulps of values near 5. It must
    # also be tight, within 1e-6 of the relaxation's objective at tol 1e-8.
    float_slack = 1e-12
    inst = desk_instances["instances"]
    over = [
        (i, e["sdp"].solution.lower_bound - e["bool_min"])
        for i, e in enumerate(inst)
        if e["sdp"].solution.lower_bound > e["bool_min"] + float_slack
    ]
    assert not over
    worst_gap = max(e["sdp"].sdp_objective - e["sdp"].solution.lower_bound for e in inst)
    assert worst_gap <= 1e-6


def test_criterion_6_criteria_correlation(desk_instances):
    inst = desk_instances["instances"]
    hits = 0
    for e in inst:
        ch = e["channel"]
        rates = [
            d.uniform_subset_rate(ch, e["mask_rate"]),
            d.uniform_subset_rate(ch, e["mask_ser"]),
            d.uniform_subset_rate(ch, e["mask_cutoff"]),
        ]
        hits += int(min(rates) >= 0.95 * max(rates))
    report(6, hits >= 40, f"optimal masks' rates within 5% on {hits}/50 channels")


def test_criterion_7_chi_square_agreement():
    t0 = time.time()
    rng = np.random.default_rng([7000])
    gains = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * np.sqrt(0.5)
    h = d.ComplexChannelMatrix(gains)
    snr = d.SnrPoint.from_db(10.0)
    ch = d.build_quantized_mimo(h, snr)
    xs = d.enumerate_qpsk_inputs(2)
    x_idx = 5
    n = 1_000_000
    y = d.sample_receive_many(h, np.tile(xs[x_idx], (n, 1)), snr, np.random.default_rng(314159))
    counts = np.bincount(y, minlength=16).astype(float)
    expect = n * ch.trans[x_idx]
    small = expect < 5.0
    if small.any():
        counts = np.concatenate((counts[~small], [counts[small].sum()]))
        expect = np.concatenate((expect[~small], [expect[small].sum()]))
    stat = float((((counts - expect) ** 2) / expect).sum())
    p_value = float(chi2_dist.sf(stat, len(counts) - 1))
    report(
        7,
        p_value >= 0.01,
        f"chi-square p={p_value:.3f} over {len(counts)} bins, "
        f"10^6 draws in {time.time() - t0:.1f}s",
    )


def test_criterion_8_coded_link_floor(coded_curves):
    k32 = coded_curves["k32"]
    k256 = coded_curves["k256"]
    k32_best = min(r.ber for r in k32)
    k256_floor = min(r.ber for r in k256)
    elapsed = coded_curves["elapsed"]
    curve32 = ", ".join(f"{r.snr_db:.0f}dB:{r.ber:.1e}" for r in k32)
    curve256 = ", ".join(f"{r.snr_db:.0f}dB:{r.ber:.1e}" for r in k256)
    ok = k32_best < 1e-3 and k256_floor >= 1e-2 and elapsed < 3600
    report(
        8,
        ok,
        f"K=32 best BER {k32_best:.1e} (<1e-3 required), K=256 minimum BER "
        f"{k256_floor:.1e} (>=1e-2 required) in {elapsed:.0f}s. "
        f"K=32 curve: [{curve32}]; K=256 curve: [{curve256}]",
    )


def test_criterion_9_seeded_commands_reproducible(tmp_path, capsys):
    h = random_small_h(77)
    h_file = tmp_path / "h.json"
    h_file.write_text(json.dumps(h.to_dict()))
    ch_file = tmp_path / "ch.json"
    assert cli_main(["channel", "build-mimo", "--h-matrix", str(h_file),
                     "--snr-db", "10", "--out", str(ch_file)]) == 0
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps({"M": 16, "indices": [0, 5, 10, 15]}))
    capsys.readouterr()

    commands = [
        ["select", "sdp", "--channel", str(ch_file), "--k", "4",
         "--seed", "11", "--nrand", "40", "--tol", "1e-7"],
        ["select", "bsa", "--channel", str(ch_file), "--k", "4",
         "--seed", "12", "--restarts", "10"],
        ["sweep", "--h-matrix", str(h_file), "--snr-db", "0,10", "--k", "4",
         "--methods", "sdp,bsa,full", "--seed", "13", "--nrand", "30",
         "--sdp-tol", "1e-5", "--ba-tol", "1e-7"],
        ["coded-ber", "--h-matrix", str(h_file), "--mask", str(mask_file),
         "--snr-db", "5,25", "--n", "24", "--total-rate", "1.0", "--seed", "14",
         "--min-frame-errors", "5", "--max-frames", "30"],
    ]
    mismatches = []
    for argv in commands:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        if first != second:
            mismatches.append(argv[0] + (" " + argv[1] if argv[0] == "select" else ""))
    report(
        9,
        not mismatches,
        "bit-identical output for seeded select sdp/bsa, sweep, coded-ber"
        if not mismatches
        else f"output differed for: {mismatches}",
    )
