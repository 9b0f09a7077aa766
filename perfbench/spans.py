"""Spans and counters recorded around calls into dmc_shaper's layers.

Tracing wraps each traced function under the name its caller looks it up by
(``dmc_shaper.link.bp_decode`` is what ``run_coded_ber`` calls, so that is the
attribute replaced). Spans are kept in memory and written out when the run
ends. Nothing inside the program is changed; the originals are put back by
``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field


def _solve_counts(args, kwargs, result) -> dict:
    return {"admm_iters": result.iterations, "unconverged": int(not result.converged)}


def _ba_counts(args, kwargs, result) -> dict:
    return {"ba_iters": result.iterations}


def _exhaustive_counts(args, kwargs, result) -> dict:
    ch, k = args[0], args[1]
    return {"subsets": math.comb(ch.num_inputs, k)}


def _llr_counts(args, kwargs, result) -> dict:
    return {"llr_uses": int(result.shape[0])}


def _bp_counts(args, kwargs, result) -> dict:
    return {"bp_iters": result.iterations, "bp_decodes": 1, "bp_converged": int(result.converged)}


def _one_call(args, kwargs, result) -> dict:
    return {"calls": 1}


# (module, attribute, span name, counter hook): every lookup the workloads'
# timed calls make. Several lookups of one function share a span name, as
# the CLI and the link each reach build_quantized_mimo through their own
# module.
TRACED = [
    ("cli", "main", "cli.main", None),
    ("cli", "build_quantized_mimo", "mimo.build", _one_call),
    ("link", "build_quantized_mimo", "mimo.build", _one_call),
    ("link", "sample_receive_many", "mimo.sample", None),
    ("cli", "blahut_arimoto", "rates.ba", _ba_counts),
    ("cli", "uniform_subset_rate", "rates.eval", None),
    ("subset_search", "uniform_subset_rate", "rates.eval", None),
    ("subset_search", "cutoff_rate", "rates.eval", None),
    ("subset_search", "ser_ml", "rates.eval", None),
    ("sdp", "cutoff_rate", "rates.eval", None),
    ("sdp", "build_gram", "sdp.gram", None),
    ("sdp", "solve_sdp", "sdp.solve", _solve_counts),
    ("sdp", "psd_factorize", "sdp.factorize", None),
    ("sdp", "round_solution", "sdp.round", None),
    ("subset_search", "exhaustive_select", "subset_search.exhaustive", _exhaustive_counts),
    ("cli", "bsa_select", "subset_search.bsa", None),
    ("subset_search", "bsa_select", "subset_search.bsa", None),
    ("link", "build_ldpc", "ldpc.build", None),
    ("link", "bp_decode", "ldpc.bp", _bp_counts),
    ("link", "compute_llrs_block", "link.llr", _llr_counts),
]


@dataclass
class Span:
    ident: int
    parent: int | None
    name: str
    op: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per wrapped call while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.op = ""
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for mod_name, attr, span_name, hook in TRACED:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(
                ident=len(tracer.spans),
                parent=parent.ident if parent else None,
                name=name,
                op=tracer.op,
                start=time.perf_counter(),
            )
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if hook is not None:
                span.counts = hook(args, kwargs, result)
            return result

        return traced

    def totals(self) -> tuple[dict, dict]:
        """(seconds per span name, summed counters); cli.main counts self time."""
        seconds: dict[str, float] = {}
        counts: dict[str, float] = {}
        for s in self.spans:
            dur = s.end - s.start
            if s.name == "cli.main":
                dur -= s.child_s
            seconds[s.name] = seconds.get(s.name, 0.0) + dur
            for key, value in s.counts.items():
                counts[key] = counts.get(key, 0) + value
        return seconds, counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.ident,
                            "parent": s.parent,
                            "name": s.name,
                            "op": s.op,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.end - s.start - s.child_s,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced round of the workload (name -> (value, unit))."""
    sec, cnt = tracer.totals()

    def per_round(x: float) -> float:
        return x / rounds

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    return {
        "sdp.solve_s": (per_round(sec.get("sdp.solve", 0.0)), "s"),
        "sdp.admm_iters": (per_round(cnt.get("admm_iters", 0)), "count"),
        "sdp.admm_ms_per_iter": (ratio(sec.get("sdp.solve", 0.0), cnt.get("admm_iters", 0), 1e3), "ms"),
        "sdp.gram_s": (per_round(sec.get("sdp.gram", 0.0)), "s"),
        "sdp.factorize_s": (per_round(sec.get("sdp.factorize", 0.0)), "s"),
        "sdp.round_s": (per_round(sec.get("sdp.round", 0.0)), "s"),
        "sdp.unconverged": (per_round(cnt.get("unconverged", 0)), "count"),
        "rates.ba_s": (per_round(sec.get("rates.ba", 0.0)), "s"),
        "rates.ba_iters": (per_round(cnt.get("ba_iters", 0)), "count"),
        "rates.eval_s": (per_round(sec.get("rates.eval", 0.0)), "s"),
        "subset_search.exhaustive_s": (per_round(sec.get("subset_search.exhaustive", 0.0)), "s"),
        "subset_search.subsets": (per_round(cnt.get("subsets", 0)), "count"),
        "subset_search.bsa_s": (per_round(sec.get("subset_search.bsa", 0.0)), "s"),
        "mimo.build_s": (per_round(sec.get("mimo.build", 0.0)), "s"),
        "mimo.build_calls": (per_round(cnt.get("calls", 0)), "count"),
        "mimo.sample_s": (per_round(sec.get("mimo.sample", 0.0)), "s"),
        "link.llr_s": (per_round(sec.get("link.llr", 0.0)), "s"),
        "link.llr_uses": (per_round(cnt.get("llr_uses", 0)), "count"),
        "link.llr_us_per_use": (ratio(sec.get("link.llr", 0.0), cnt.get("llr_uses", 0), 1e6), "us"),
        "ldpc.bp_s": (per_round(sec.get("ldpc.bp", 0.0)), "s"),
        "ldpc.bp_iters": (per_round(cnt.get("bp_iters", 0)), "count"),
        "ldpc.bp_us_per_iter": (ratio(sec.get("ldpc.bp", 0.0), cnt.get("bp_iters", 0), 1e6), "us"),
        "ldpc.bp_converged_frac": (ratio(cnt.get("bp_converged", 0), cnt.get("bp_decodes", 0), 1.0), "fraction"),
        "ldpc.build_s": (per_round(sec.get("ldpc.build", 0.0)), "s"),
        "cli.self_s": (per_round(sec.get("cli.main", 0.0)), "s"),
    }
