"""Quick test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload at a reduced size through all of its checks, traced and
untraced, and then corrupts one output of each workload to show that the
checks catch it and count it as a failed operation. Exits non-zero on the
first broken expectation.
"""

from __future__ import annotations

import sys

import run

# Expected (attempted, failed) per round at the reduced size. desk_m16 keeps
# instance 21, whose SDP solve raises LinAlgError in the sliced eigh.
QUICK_ROUND = {
    "sweep_m256": (1, 0),
    "desk_m16": (10, 1),
    "coded_link": (4, 0),
    "search_m64": (4, 0),
}


def _corrupt(d, name: str):
    """Patch one program function so that its output for ``name`` is wrong;
    returns a function that undoes the patch."""
    if name == "sweep_m256":
        module, attr = d.cli, "uniform_subset_rate"
        original = module.uniform_subset_rate
        patched = lambda ch, mask: original(ch, mask) + 1e-3  # noqa: E731
    elif name == "desk_m16":
        module, attr = d.subset_search, "exhaustive_select"
        original = module.exhaustive_select

        def patched(ch, k, criterion):
            mask, value = original(ch, k, criterion)
            return mask, value - 1e-3 if criterion == "ser" else value
    elif name == "coded_link":
        module, attr = d.link, "compute_llrs_block"
        original = module.compute_llrs_block
        patched = lambda ch, lab, y: -original(ch, lab, y)  # noqa: E731
    else:
        module, attr = d.subset_search, "bsa_select"
        original = module.bsa_select

        def patched(ch, cfg):
            res = original(ch, cfg)
            return type(res)(res.mask, res.ser * 0.5, res.truncated, res.initial_sers, res.final_sers)
    setattr(module, attr, patched)
    return lambda: setattr(module, attr, original)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def main() -> int:
    d = run.load_program()
    for name, (per_round, fail_per_round) in QUICK_ROUND.items():
        for trace in (False, True):
            res = run.run_workload(d, name, seed=3, seconds=0.0, trace=trace, quick=True)
            rounds = res["rounds"]
            expect(
                res["correct"]
                and res["attempted"] == per_round * rounds
                and res["failed"] == fail_per_round * rounds,
                f"{name} trace={int(trace)}: correct, {res['attempted']} attempted, "
                f"{res['failed']} failed {res['failures']}",
            )
            values = [v for v, _ in res["metrics"].values()]
            expect(
                all(v == v for v in values) and (trace or all(v > 0 for v in values)),
                f"{name} trace={int(trace)}: metrics {sorted(res['metrics'])}",
            )
        undo = _corrupt(d, name)
        try:
            res = run.run_workload(d, name, seed=3, seconds=0.0, trace=False, quick=True)
        finally:
            undo()
        expect(
            not res["correct"] and res["failed"] > fail_per_round,
            f"{name}: corrupted output caught ({res['failed']} failed: {res['failures'][:1]})",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
