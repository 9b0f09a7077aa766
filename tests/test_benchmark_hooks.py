"""The benchmark's hooks and calls must resolve on the package.

``perfbench/spans.py`` replaces functions by the module attribute their
callers look them up by, and ``perfbench/selftest.py`` patches four more. A
refactor that drops one of those imports breaks a traced benchmark run in
``Tracer.install``; a refactor that drops a keyword or a CLI flag that
``perfbench/workloads.py`` passes breaks every run, and so does one that
drops a result attribute the benchmark reads. These tests catch all three in
the ordinary suite.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from dmc_shaper import channel, cli, ldpc, link, mimo, rates, sdp, subset_search

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The attributes perfbench/selftest.py replaces to corrupt one output.
SELFTEST_PATCHED = [
    ("cli", "uniform_subset_rate"),
    ("subset_search", "exhaustive_select"),
    ("subset_search", "bsa_select"),
    ("link", "compute_llrs_block"),
]


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return [(mod, attr) for mod, attr, *_ in spans.TRACED]


@pytest.mark.parametrize("mod, attr", _traced() + SELFTEST_PATCHED)
def test_hooked_attribute_resolves(mod, attr):
    module = importlib.import_module(f"dmc_shaper.{mod}")
    assert callable(getattr(module, attr, None)), f"dmc_shaper.{mod}.{attr}"


# Each call perfbench/workloads.py makes with keywords or a fixed arity, with
# placeholders for the values it computes.
WORKLOAD_CALLS = [
    (sdp.RoundingConfig, (), {"n_rand": 100, "rng_seed": 0}),
    (sdp.sdp_select, ("ch", 4), {"tol": 1e-8, "cfg": "cfg", "max_iter": 20_000}),
    (subset_search.BsaConfig, (), {"k": 4, "restarts": 20, "rng_seed": 0}),
    (subset_search.bsa_select, ("ch", "cfg"), {}),
    (subset_search.exhaustive_select, ("ch", 4, "rate"), {}),
    (
        link.run_coded_ber,
        ("h", "mask", [0.0]),
        {"n": 250, "total_rate": 2.5, "seeds": (1,), "min_frame_errors": 51, "max_frames": 50},
    ),
    (link.compute_llrs_block, ("ch", "lab", "y"), {}),
    (link.SymbolLabeling.from_mask, ("mask",), {}),
    (channel.SubsetMask.from_indices, (256, "idx"), {}),
    (channel.SubsetMask.full, (256,), {}),
    (mimo.build_quantized_mimo, ("h", "snr"), {}),
    (mimo.SnrPoint.from_db, (0.0,), {}),
    (mimo.ComplexChannelMatrix, ("gains",), {}),
    (mimo.example_h4x4, (), {}),
    (cli.main, (["sweep"],), {}),
]


@pytest.mark.parametrize(
    "target, args, kwargs", WORKLOAD_CALLS, ids=[c[0].__qualname__ for c in WORKLOAD_CALLS]
)
def test_workload_call_binds(target, args, kwargs):
    inspect.signature(target).bind(*args, **kwargs)


@pytest.mark.parametrize("h_spec, ks", [("bundled", "16,64"), ("h.json", "4,8")])
def test_sweep_argv_parses(h_spec, ks):
    # The argv of sweep_m256 (full run, then the self-test's quick round).
    args = cli.build_parser().parse_args(
        ["sweep", "--h-matrix", h_spec, "--snr-db", "0.0", "--k", ks,
         "--methods", "sdp,bsa,full", "--seed", "1"]
    )
    assert args.func is cli.cmd_sweep


# Result attributes the workloads' checks and the span counters read.
RESULT_ATTRIBUTES = [
    (sdp.SdpSelectResult, ("mask", "cutoff_rate_bits", "sdp_objective")),
    (channel.SubsetMask, ("m", "k", "indices")),
    (mimo.ComplexChannelMatrix, ("entries", "n_tx")),
    (channel.DmcChannel, ("trans", "num_inputs")),
    (subset_search.BsaResult, ("mask", "ser")),
    (link.BerRecord, ("frames", "bits_sent", "bit_errors", "frame_errors", "ber")),
    (sdp.SdpSolution, ("iterations", "converged")),
    (rates.BaResult, ("iterations", "converged")),
    (ldpc.BpResult, ("iterations", "converged")),
]


@pytest.mark.parametrize(
    "cls, names", RESULT_ATTRIBUTES, ids=[c.__name__ for c, _ in RESULT_ATTRIBUTES]
)
def test_result_attributes_exist(cls, names):
    # A field or a property serves the benchmark equally.
    fields = {f.name for f in dataclasses.fields(cls)}
    for name in names:
        assert name in fields or isinstance(getattr(cls, name, None), property), (
            f"{cls.__name__}.{name}"
        )


def test_bsa_result_positional_fields():
    # perfbench/selftest.py rebuilds a BsaResult from these fields by position.
    names = [f.name for f in dataclasses.fields(subset_search.BsaResult)]
    assert names[:5] == ["mask", "ser", "truncated", "initial_sers", "final_sers"]
