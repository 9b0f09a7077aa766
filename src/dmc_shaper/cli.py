"""Command-line surface: channel construction, capacity, subset selection,
figure-ready rate sweeps, and coded BER simulation.

All randomness sits behind explicit --seed flags; repeated runs with the same
arguments produce byte-identical output. CSV uses '.' decimals regardless of
locale and carries a schema version header comment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .channel import (
    SubsetMask,
    channel_to_dict,
    check_channel_dict,
    load_channel,
    save_channel,
)
from .channel import check_seed, check_subset_size
from .link import run_coded_ber
from .mimo import ComplexChannelMatrix, SnrPoint, build_quantized_mimo, example_h4x4, load_h_matrix
from .rates import blahut_arimoto, check_stopping_rule, uniform_subset_rate
from .sdp import RoundingConfig, sdp_select
from .subset_search import CRITERIA, BsaConfig, bsa_select, evaluate_mask, exhaustive_select
from .subset_search import check_bsa_size, check_exhaustive_size

CSV_HEADER_COMMENT = f"# dmc-shaper v{__version__}"


def _parse_snr_db(text: str) -> list[float]:
    """A non-empty list of dB values, each checked by ``SnrPoint``."""
    snrs = [float(tok) for tok in text.split(",") if tok.strip()]
    if not snrs:
        raise ValueError("need at least one SNR point")
    for snr_db in snrs:
        SnrPoint.from_db(snr_db)
    return snrs


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _load_h(spec: str) -> ComplexChannelMatrix:
    if spec == "bundled":
        return example_h4x4()
    return load_h_matrix(spec)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_mask(spec: str, m: int) -> SubsetMask:
    if spec == "full":
        return SubsetMask.full(m)
    with open(spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        if "M" in doc and (type(doc["M"]) is not int or doc["M"] != m):
            raise ValueError(f"mask file is for M={doc['M']!r}, channel has M={m}")
        doc = doc.get("indices", doc.get("mask"))
    if not isinstance(doc, list):
        raise ValueError("mask file must be a JSON list or an object with 'indices'")
    return SubsetMask.from_indices(m, doc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_build_mimo(args: argparse.Namespace) -> int:
    h = _load_h(args.h_matrix)
    snrs = _parse_snr_db(args.snr_db)
    for snr_db in snrs:
        ch = build_quantized_mimo(h, SnrPoint.from_db(snr_db))
        if args.out:
            path = args.out if len(snrs) == 1 else _indexed_path(args.out, snr_db)
            save_channel(ch, path)
        else:
            sys.stdout.write(json.dumps(channel_to_dict(ch)) + "\n")
    return 0


def _indexed_path(base: str, snr_db: float) -> str:
    root, ext = os.path.splitext(base)
    tag = repr(snr_db).replace("-", "m").replace(".", "p")
    return f"{root}_snr{tag}{ext or '.json'}"


def cmd_capacity_ba(args: argparse.Namespace) -> int:
    ch = load_channel(args.channel)
    res = blahut_arimoto(ch, tol=args.tol, max_iter=args.max_iter)
    doc = {
        "capacity_bits": res.capacity_bits,
        "lower_bits": res.lower_bits,
        "upper_bits": res.upper_bits,
        "iterations": res.iterations,
        "converged": res.converged,
        "p": res.input_dist.probs.tolist(),
    }
    _emit([json.dumps(doc)], args.out)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    ch = load_channel(args.channel)
    if args.select_cmd == "sdp":
        cfg = RoundingConfig(n_rand=args.nrand, rng_seed=args.seed)
        res = sdp_select(ch, args.k, tol=args.tol, cfg=cfg, max_iter=args.max_iter)
        doc = {
            "mask": res.mask.indices.tolist(),
            "k": args.k,
            "cutoff_rate_bits": res.cutoff_rate_bits,
            "sdp_objective": res.sdp_objective,
            "sdp_bound_bits": res.sdp_bound_bits,
            "rounded_objective": res.rounded_objective,
            "residuals": {
                "primal": res.solution.primal_residual,
                "dual": res.solution.dual_residual,
            },
            "iterations": res.solution.iterations,
            "converged": res.solution.converged,
        }
    elif args.select_cmd == "bsa":
        res = bsa_select(ch, BsaConfig(k=args.k, restarts=args.restarts, rng_seed=args.seed))
        doc = {
            "mask": res.mask.indices.tolist(),
            "k": args.k,
            "ser": res.ser,
            "truncated": res.truncated,
            "restarts": args.restarts,
        }
    else:
        mask, value = exhaustive_select(ch, args.k, args.criterion)
        doc = {
            "mask": mask.indices.tolist(),
            "k": args.k,
            "criterion": args.criterion,
            "value": value,
        }
    _emit([json.dumps(doc)], args.out)
    return 0


def _sweep_point(
    h: ComplexChannelMatrix,
    snr_db: float,
    snr_idx: int,
    configs: list[tuple[int, str]],
    args: argparse.Namespace,
) -> dict[str, str]:
    """One CSV row, keyed by column name in column order."""
    ch = build_quantized_mimo(h, SnrPoint.from_db(snr_db))
    full = SubsetMask.full(ch.num_inputs)
    ba = blahut_arimoto(ch, tol=args.ba_tol, max_iter=args.ba_max_iter)
    row = {
        "snr_db": _fmt(snr_db),
        "capacity_ba": _fmt(ba.capacity_bits),
        "rate_uniform_full": _fmt(uniform_subset_rate(ch, full)),
    }
    # Solver diagnostics go after every rate column: BA's flag, then each
    # SDP solve's flag and iteration count.
    diagnostics = {"ba_converged": str(int(ba.converged))}
    for cfg_idx, (k, method) in enumerate(configs):
        seed = _derived_seed(args.seed, snr_idx, cfg_idx)
        if method == "exhaustive":
            # Each column reports the optimum of its own criterion.
            triple = [exhaustive_select(ch, k, crit)[1] for crit in ("rate", "cutoff", "ser")]
        else:
            if method == "full":
                mask = full
            elif method == "sdp":
                res = sdp_select(
                    ch,
                    k,
                    tol=args.sdp_tol,
                    cfg=RoundingConfig(n_rand=args.nrand, rng_seed=seed),
                    max_iter=args.sdp_max_iter,
                )
                mask = res.mask
                diagnostics[f"sdp_converged_k{k}"] = str(int(res.solution.converged))
                diagnostics[f"sdp_iters_k{k}"] = str(res.solution.iterations)
            else:
                mask = bsa_select(
                    ch, BsaConfig(k=k, restarts=args.restarts, rng_seed=seed)
                ).mask
            vals = evaluate_mask(ch, mask)
            triple = (vals["rate"], vals["cutoff"], vals["ser"])
        for name, value in zip(("rate", "cutoff", "ser"), triple):
            row[f"{name}_k{k}_{method}"] = _fmt(value)
    return row | diagnostics


def cmd_sweep(args: argparse.Namespace) -> int:
    h = _load_h(args.h_matrix)
    snrs = _parse_snr_db(args.snr_db)
    ks = _parse_int_list(args.k)
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    for method in methods:
        if method not in ("sdp", "bsa", "exhaustive", "full"):
            raise ValueError(f"unknown method {method!r}")
    if not ks or not methods:
        raise ValueError("need at least one k and one method")
    # A repeated value would write two columns under one name.
    for flag, values in (("--k", ks), ("--methods", methods)):
        if len(set(values)) != len(values):
            raise ValueError(f"{flag} values must be distinct, got {values}")
    m = 4**h.n_tx
    configs = [(k, method) for k in ks for method in methods]
    # Fail before the first SNR point rather than after the earlier ones ran.
    check_stopping_rule(args.ba_tol, args.ba_max_iter)
    for k, method in configs:
        check_subset_size(m, k)
        if method == "bsa":
            check_bsa_size(m, k)
            BsaConfig(k=k, restarts=args.restarts)
        elif method == "sdp":
            check_stopping_rule(args.sdp_tol, args.sdp_max_iter)
            RoundingConfig(n_rand=args.nrand)
        elif method == "exhaustive":
            check_exhaustive_size(m, k)

    rows = [_sweep_point(h, snr, i, configs, args) for i, snr in enumerate(snrs)]

    lines = [CSV_HEADER_COMMENT, ",".join(rows[0])]
    lines.extend(",".join(row.values()) for row in rows)
    _emit(lines, args.out)
    return 0


def cmd_coded_ber(args: argparse.Namespace) -> int:
    h = _load_h(args.h_matrix)
    m = 4**h.n_tx
    mask = _load_mask(args.mask, m)
    snrs = _parse_snr_db(args.snr_db)
    seeds = [args.seed + i for i in range(args.ensemble)]
    records = run_coded_ber(
        h,
        mask,
        snrs,
        n=args.n,
        total_rate=args.total_rate,
        seeds=seeds,
        min_frame_errors=args.min_frame_errors,
        max_frames=args.max_frames,
    )
    lines = [CSV_HEADER_COMMENT, "snr_db,k,code_rate,frames,bit_errors,ber"]
    for rec in records:
        lines.append(
            ",".join(
                [
                    _fmt(rec.snr_db),
                    str(mask.k),
                    _fmt(rec.code_rate),
                    str(rec.frames),
                    str(rec.bit_errors),
                    _fmt(rec.ber),
                ]
            )
        )
    _emit(lines, args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.channel, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(f"INVALID: {exc}\n")
        return 1
    problems = check_channel_dict(doc)
    if problems:
        for p in problems:
            sys.stdout.write(f"INVALID: {p}\n")
        return 1
    sys.stdout.write(f"OK: {doc['M']} inputs, {doc['L']} outputs\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmc-shaper",
        description="Information rates and input-subset selection for large DMCs",
    )
    parser.add_argument("--version", action="version", version=f"dmc-shaper {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_channel = sub.add_parser("channel", help="channel construction")
    channel_sub = p_channel.add_subparsers(dest="channel_cmd", required=True)
    p_build = channel_sub.add_parser(
        "build-mimo", help="build the one-bit quantized QPSK MIMO channel"
    )
    p_build.add_argument("--h-matrix", required=True, help="H JSON file or 'bundled'")
    p_build.add_argument("--snr-db", required=True, help="comma-separated dB values")
    p_build.add_argument("--out", help="output channel JSON path")
    p_build.set_defaults(func=cmd_build_mimo)

    p_cap = sub.add_parser("capacity", help="channel capacity")
    cap_sub = p_cap.add_subparsers(dest="capacity_cmd", required=True)
    p_ba = cap_sub.add_parser("ba", help="Blahut-Arimoto capacity")
    p_ba.add_argument("--channel", required=True)
    p_ba.add_argument("--tol", type=float, default=1e-6)
    p_ba.add_argument("--max-iter", type=int, default=200_000)
    p_ba.add_argument("--out")
    p_ba.set_defaults(func=cmd_capacity_ba)

    p_select = sub.add_parser("select", help="input subset selection")
    select_sub = p_select.add_subparsers(dest="select_cmd", required=True)

    p_sdp = select_sub.add_parser("sdp", help="cutoff-rate selection via SDP relaxation")
    p_sdp.add_argument("--channel", required=True)
    p_sdp.add_argument("--k", type=int, required=True)
    p_sdp.add_argument("--tol", type=float, default=1e-6)
    p_sdp.add_argument("--max-iter", type=int, default=5000)
    p_sdp.add_argument("--nrand", type=int, default=100)
    p_sdp.add_argument("--seed", type=int, default=0)
    p_sdp.add_argument("--out")
    p_sdp.set_defaults(func=cmd_select)

    p_bsa = select_sub.add_parser("bsa", help="SER selection via binary switching")
    p_bsa.add_argument("--channel", required=True)
    p_bsa.add_argument("--k", type=int, required=True)
    p_bsa.add_argument("--restarts", type=int, default=20)
    p_bsa.add_argument("--seed", type=int, default=0)
    p_bsa.add_argument("--out")
    p_bsa.set_defaults(func=cmd_select)

    p_exh = select_sub.add_parser("exhaustive", help="small-scale exhaustive optimum")
    p_exh.add_argument("--channel", required=True)
    p_exh.add_argument("--k", type=int, required=True)
    p_exh.add_argument("--criterion", choices=CRITERIA, required=True)
    p_exh.add_argument("--out")
    p_exh.set_defaults(func=cmd_select)

    p_sweep = sub.add_parser("sweep", help="rate/capacity sweep to CSV")
    p_sweep.add_argument("--h-matrix", required=True, help="H JSON file or 'bundled'")
    p_sweep.add_argument("--snr-db", required=True, help="comma-separated dB values")
    p_sweep.add_argument("--k", required=True, help="comma-separated subset sizes")
    p_sweep.add_argument(
        "--methods", required=True, help="comma-separated subset of sdp,bsa,exhaustive,full"
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--nrand", type=int, default=100)
    p_sweep.add_argument("--restarts", type=int, default=20)
    p_sweep.add_argument("--sdp-tol", type=float, default=1e-4)
    p_sweep.add_argument("--sdp-max-iter", type=int, default=5000)
    p_sweep.add_argument("--ba-tol", type=float, default=1e-6)
    p_sweep.add_argument("--ba-max-iter", type=int, default=200_000)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ber = sub.add_parser("coded-ber", help="coded Monte-Carlo BER sweep to CSV")
    p_ber.add_argument("--h-matrix", required=True, help="H JSON file or 'bundled'")
    p_ber.add_argument("--mask", required=True, help="mask JSON file or 'full'")
    p_ber.add_argument("--snr-db", required=True, help="comma-separated dB values")
    p_ber.add_argument("--n", type=int, default=250)
    p_ber.add_argument("--total-rate", type=float, default=2.5)
    p_ber.add_argument("--seed", type=int, default=0)
    p_ber.add_argument("--ensemble", type=int, default=1, help="number of code seeds")
    p_ber.add_argument("--min-frame-errors", type=int, default=50)
    p_ber.add_argument("--max-frames", type=int, default=10**6)
    p_ber.add_argument("--out")
    p_ber.set_defaults(func=cmd_coded_ber)

    p_val = sub.add_parser("validate", help="validate a channel JSON file")
    p_val.add_argument("--channel", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every --seed flag is checked here, before its command does any work.
        check_seed(getattr(args, "seed", 0), "--seed")
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
