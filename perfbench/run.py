"""dmc-shaper benchmark: one workload per run, whole rounds for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ./src of that
checkout, never from an installed copy. The last line of standard output is
the result object; the lines before it give each metric with its unit and the
environment. A fuller record (per-operation times, failures, environment) is
written to perfbench/results/, and with --trace 1 the spans as JSON lines.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics and the tracing overhead.
BLAS and DMC_SHAPER_THREADS settings are recorded as found, never set.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("sweep_m256", "desk_m16", "coded_link", "search_m64")
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DMC_SHAPER_THREADS")


class SetupError(RuntimeError):
    pass


def require_source() -> None:
    if not (SRC / "dmc_shaper" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC}; run from a dmc-shaper checkout")


def load_program():
    """Import dmc_shaper from this checkout's src/ and return the package."""
    require_source()
    sys.path.insert(0, str(SRC))
    d = importlib.import_module("dmc_shaper")
    if Path(d.__file__).resolve().parent != (SRC / "dmc_shaper").resolve():
        raise SetupError(f"dmc_shaper was imported from {d.__file__}, not from {SRC}")
    importlib.import_module("dmc_shaper.cli")
    return d


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


@dataclass
class OpRecord:
    name: str
    group: str
    units: int
    seconds: float
    error: str | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Round:
    traced: bool
    ops: list[OpRecord] = field(default_factory=list)


def run_round(ops, tracer=None) -> Round:
    """Time each operation of one round, then check its output (untimed)."""
    rnd = Round(traced=tracer is not None)
    for op in ops:
        error = None
        out = None
        if tracer is not None:
            tracer.op = op.name
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation failure is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        problems = [] if error else op.check(out)
        rnd.ops.append(OpRecord(op.name, op.group, op.units, seconds, error, problems))
    return rnd


def run_rounds(d, ops, seconds: float, tracer=None) -> list[Round]:
    """Whole rounds until ``seconds`` have passed (at least one).

    With a tracer, each pass is an untraced round followed by a traced one,
    with the wrappers installed only for the traced round.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops))
        if tracer is not None:
            tracer.install(d)
            try:
                rounds.append(run_round(ops, tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return rounds


def typical_round_s(rounds: list[Round]) -> float:
    """Each operation's median time across the rounds, summed over the round.

    Unlike the median of round totals, this ignores a slow spell that hits
    only one round, which on a shared machine is the usual disturbance.
    """
    per_op = zip(*[[op.seconds for op in r.ops] for r in rounds])
    return sum(statistics.median(times) for times in per_op)


def _throughput(rounds: list[Round], group: str) -> float:
    ops = [op for r in rounds for op in r.ops if op.group == group and op.error is None]
    busy = sum(op.seconds for op in ops)
    return sum(op.units for op in ops) / busy if busy else 0.0


def build_workload(d, name: str, seed: int, quick: bool):
    import workloads

    RESULTS.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](d, seed, quick, RESULTS)


def run_workload(
    d, name: str, seed: int, seconds: float, trace: bool, quick: bool = False, spans_path=None
) -> dict:
    """Run one workload in this process; returns the full record.

    A traced run writes its spans to ``spans_path`` when one is given.
    """
    import spans

    ops = build_workload(d, name, seed, quick)
    tracer = spans.Tracer() if trace else None
    rounds = run_rounds(d, ops, seconds, tracer)
    records = [op for r in rounds for op in r.ops]
    failed = [op for op in records if op.error or op.problems]
    untraced = [r for r in rounds if not r.traced]
    plain = typical_round_s(untraced)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [r for r in rounds if r.traced]
        metrics.update(spans.layer_metrics(tracer, len(traced)))
        metrics["frames_per_s.waterfall"] = (_throughput(untraced, "waterfall"), "frames/s")
        metrics["frames_per_s.clear"] = (_throughput(untraced, "clear"), "frames/s")
        metrics["subsets_per_s"] = (_throughput(untraced, "exhaustive"), "subsets/s")
        traced_wall = typical_round_s(traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (plain, "s")
        metrics["trace.overhead_s"] = (traced_wall - plain, "s")
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        metrics["wall_s"] = (plain, "s")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not any(op.problems for op in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "rounds": len(rounds),
        "failures": sorted({f"{op.name}: {op.error or '; '.join(op.problems)}" for op in failed}),
        "ops": [vars(op) for op in records],
    }


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time fresh processes that import the program and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe:
            build_workload(load_program(), args.workload, args.seed, quick=False)
            return 0
        require_source()
        setup = setup_seconds(args.workload, args.seed) if not args.trace else []
        d = load_program()
        tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        res = run_workload(
            d, args.workload, args.seed, args.seconds, bool(args.trace),
            spans_path=RESULTS / f"{tag}_spans.jsonl",
        )
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    env = environment()
    res.update(environment=env, setup_probes_s=setup)
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    print("environment: " + json.dumps(env))
    for failure in res["failures"]:
        print(f"failed: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
