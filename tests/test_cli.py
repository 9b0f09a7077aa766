"""End-to-end tests of the command-line surface."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dmc_shaper import __version__, check_channel_dict, cli, link, load_channel, rates
from dmc_shaper.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def h_file(tmp_path):
    rng = np.random.default_rng(50)
    gains = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * np.sqrt(0.5)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"re": gains.real.tolist(), "im": gains.imag.tolist()}))
    return str(path)


@pytest.fixture()
def bsc_file(tmp_path):
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps({"M": 2, "L": 2, "P": [[0.9, 0.1], [0.1, 0.9]]}))
    return str(path)


@pytest.fixture()
def mimo_channel_file(tmp_path, h_file, capsys):
    out = tmp_path / "mimo.json"
    code = main(["channel", "build-mimo", "--h-matrix", h_file,
                 "--snr-db", "10", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return str(out)


class TestValidate:
    def test_valid_file(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "validate", "--channel", bsc_file)
        assert code == 0
        assert out.startswith("OK")

    def test_row_sum_failure_names_row(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"M": 2, "L": 2, "P": [[0.5, 0.4], [0.5, 0.5]]}))
        code, out, _ = run_cli(capsys, "validate", "--channel", str(path))
        assert code == 1
        assert "row 0" in out

    def test_negative_entry(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"M": 2, "L": 2, "P": [[1.1, -0.1], [0.5, 0.5]]}))
        code, out, _ = run_cli(capsys, "validate", "--channel", str(path))
        assert code == 1
        assert "negative" in out

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, out, _ = run_cli(capsys, "validate", "--channel", str(path))
        assert code == 1


class TestBuildMimo:
    def test_writes_valid_channel(self, capsys, h_file, tmp_path):
        out = tmp_path / "ch.json"
        code, _, _ = run_cli(
            capsys, "channel", "build-mimo", "--h-matrix", h_file,
            "--snr-db", "5", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["M"] == 16 and doc["L"] == 16
        rows = np.asarray(doc["P"])
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_bundled_matrix(self, capsys, tmp_path):
        out = tmp_path / "ch.json"
        code, _, _ = run_cli(
            capsys, "channel", "build-mimo", "--h-matrix", "bundled",
            "--snr-db", "0", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["M"] == 256

    def test_cap_guard_errors(self, capsys, tmp_path):
        # An 8 x 8 H needs a 34 GB transition matrix, over the byte budget.
        path = tmp_path / "h8.json"
        path.write_text(json.dumps({"re": np.eye(8).tolist(), "im": np.zeros((8, 8)).tolist()}))
        code, out, err = run_cli(
            capsys, "channel", "build-mimo", "--h-matrix", str(path), "--snr-db", "0"
        )
        assert code == 1
        assert out == ""
        assert "byte budget" in err

    def test_stdout_without_out(self, capsys, h_file):
        code, out, _ = run_cli(
            capsys, "channel", "build-mimo", "--h-matrix", h_file, "--snr-db", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert check_channel_dict(doc) == []
        assert doc["M"] == 16

    @pytest.mark.parametrize("snr_db", ["nan", "-inf", ",", "10,4000"])
    def test_unusable_snr_rejected(self, capsys, h_file, snr_db):
        code, out, err = run_cli(
            capsys, "channel", "build-mimo", "--h-matrix", h_file, f"--snr-db={snr_db}"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("snr_db", ["4000", "inf"])
    def test_unusable_snr_exits_without_traceback(self, h_file, snr_db):
        proc = subprocess.run(
            [sys.executable, "-m", "dmc_shaper", "channel", "build-mimo",
             "--h-matrix", h_file, f"--snr-db={snr_db}"],
            capture_output=True, text=True, env=_checkout_env(),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_snr_list_writes_indexed_files(self, capsys, h_file, tmp_path):
        out = tmp_path / "ch.json"
        code, _, _ = run_cli(
            capsys, "channel", "build-mimo", "--h-matrix", h_file,
            "--snr-db=-2.5,10", "--out", str(out),
        )
        assert code == 0
        made = sorted(p.name for p in tmp_path.glob("ch_snr*.json"))
        assert made == ["ch_snr10p0.json", "ch_snrm2p5.json"]


class TestCapacity:
    def test_bsc_matches_closed_form(self, capsys, bsc_file):
        code, out, _ = run_cli(
            capsys, "capacity", "ba", "--channel", bsc_file, "--tol", "1e-8"
        )
        assert code == 0
        doc = json.loads(out)
        import math
        h2 = -0.1 * math.log2(0.1) - 0.9 * math.log2(0.9)
        assert doc["capacity_bits"] == pytest.approx(1 - h2, abs=1e-7)
        assert doc["converged"]

    def test_no_iteration_rejected(self, capsys, bsc_file):
        code, out, err = run_cli(
            capsys, "capacity", "ba", "--channel", bsc_file, "--max-iter", "0"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "max_iter" in err

    def test_nan_tol_rejected(self, capsys, bsc_file):
        code, out, err = run_cli(
            capsys, "capacity", "ba", "--channel", bsc_file, "--tol", "nan"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "tol must be positive" in err


class TestSelect:
    def test_sdp_output_schema(self, capsys, mimo_channel_file):
        code, out, _ = run_cli(
            capsys, "select", "sdp", "--channel", mimo_channel_file,
            "--k", "4", "--tol", "1e-7", "--nrand", "50", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["mask"]) == doc["mask"]
        assert len(doc["mask"]) == 4
        assert {"cutoff_rate_bits", "sdp_objective", "residuals", "iterations"} <= doc.keys()

    def test_bsa_output_schema(self, capsys, mimo_channel_file):
        code, out, _ = run_cli(
            capsys, "select", "bsa", "--channel", mimo_channel_file,
            "--k", "4", "--restarts", "10", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["mask"]) == 4
        assert 0.0 <= doc["ser"] <= 1.0

    def test_exhaustive_dominates(self, capsys, mimo_channel_file):
        _, out_sdp, _ = run_cli(
            capsys, "select", "sdp", "--channel", mimo_channel_file,
            "--k", "4", "--tol", "1e-7", "--seed", "0",
        )
        _, out_exh, _ = run_cli(
            capsys, "select", "exhaustive", "--channel", mimo_channel_file,
            "--k", "4", "--criterion", "cutoff",
        )
        sdp_doc = json.loads(out_sdp)
        exh_doc = json.loads(out_exh)
        assert exh_doc["value"] >= sdp_doc["cutoff_rate_bits"] - 1e-12

    def test_seeded_commands_bit_reproducible(self, capsys, mimo_channel_file):
        args = ["select", "sdp", "--channel", mimo_channel_file,
                "--k", "4", "--seed", "9", "--nrand", "30", "--tol", "1e-7"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_exhaustive_prints_brute_force_optimum(self, capsys, tmp_path):
        # A seeded 3x3 H at 10 dB gives M = 64 inputs; K = 3 is C(64, 3) = 41,664 subsets.
        rng = np.random.default_rng(64)
        gains = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * np.sqrt(0.5)
        h_path, ch_path = tmp_path / "h3.json", tmp_path / "m64.json"
        h_path.write_text(json.dumps({"re": gains.real.tolist(), "im": gains.imag.tolist()}))
        run_cli(capsys, "channel", "build-mimo", "--h-matrix", str(h_path),
                "--snr-db", "10", "--out", str(ch_path))
        ch = load_channel(str(ch_path))
        assert ch.num_inputs == 64
        combos = np.asarray(list(itertools.combinations(range(64), 3)))
        scorers = {"rate": rates.batch_rate, "cutoff": rates.batch_cutoff_rate, "ser": rates.batch_ser}
        for criterion, scorer in scorers.items():
            vals = scorer(ch, combos)
            i = int(vals.argmin() if criterion == "ser" else vals.argmax())
            code, out, _ = run_cli(
                capsys, "select", "exhaustive", "--channel", str(ch_path),
                "--k", "3", "--criterion", criterion,
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["mask"] == combos[i].tolist(), criterion
            assert doc["value"] == vals[i], criterion


class TestSweep:
    def test_schema_and_full_method_columns(self, capsys, h_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "0,10",
            "--k", "4", "--methods", "sdp,full", "--seed", "0",
            "--nrand", "30", "--sdp-tol", "1e-5", "--ba-tol", "1e-7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == f"# dmc-shaper v{__version__}"
        header = lines[1].split(",")
        assert header[:3] == ["snr_db", "capacity_ba", "rate_uniform_full"]
        assert "rate_k4_sdp" in header and "ser_k4_full" in header
        # Solver diagnostics come after every rate column.
        assert header[-3:] == ["ba_converged", "sdp_converged_k4", "sdp_iters_k4"]
        assert len(lines) == 4
        for line in lines[2:]:
            cells = line.split(",")
            assert cells[-3:-1] == ["1", "1"] and cells[-1].isdigit()
            row = dict(zip(header, map(float, cells)))
            assert 1 <= row["sdp_iters_k4"] <= 5000
            # method full repeats the full-set columns
            assert row["rate_k4_full"] == row["rate_uniform_full"]
            # orderings
            assert row["cutoff_k4_sdp"] <= row["rate_k4_sdp"] + 1e-9
            assert row["rate_k4_sdp"] <= row["capacity_ba"] + 1e-6

    def test_full_header_pinned(self, capsys, h_file):
        # Rate columns per (k, method) in --k then --methods order, then the
        # diagnostics, each sdp k in --k order.
        code, out, _ = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "5",
            "--k", "8,4", "--methods", "full,sdp,exhaustive", "--seed", "0", "--nrand", "5",
        )
        assert code == 0
        assert out.split("\n")[1].split(",") == [
            "snr_db", "capacity_ba", "rate_uniform_full",
            "rate_k8_full", "cutoff_k8_full", "ser_k8_full",
            "rate_k8_sdp", "cutoff_k8_sdp", "ser_k8_sdp",
            "rate_k8_exhaustive", "cutoff_k8_exhaustive", "ser_k8_exhaustive",
            "rate_k4_full", "cutoff_k4_full", "ser_k4_full",
            "rate_k4_sdp", "cutoff_k4_sdp", "ser_k4_sdp",
            "rate_k4_exhaustive", "cutoff_k4_exhaustive", "ser_k4_exhaustive",
            "ba_converged", "sdp_converged_k8", "sdp_iters_k8",
            "sdp_converged_k4", "sdp_iters_k4",
        ]

    def test_unconverged_sdp_flagged(self, capsys, h_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "5",
            "--k", "4,8", "--methods", "bsa,sdp", "--seed", "0",
            "--nrand", "5", "--sdp-max-iter", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        assert header[-5:] == [
            "ba_converged", "sdp_converged_k4", "sdp_iters_k4",
            "sdp_converged_k8", "sdp_iters_k8",
        ]
        assert "ba_converged" not in header[:-5]
        row = dict(zip(header, lines[2].split(",")))
        assert row["ba_converged"] == "1"
        assert row["sdp_converged_k4"] == "0" and row["sdp_iters_k4"] == "5"
        assert row["sdp_converged_k8"] == "0" and row["sdp_iters_k8"] == "5"

    def test_no_sdp_columns_without_sdp(self, capsys, h_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "5",
            "--k", "4", "--methods", "full", "--seed", "0",
        )
        assert code == 0
        header = out.strip().split("\n")[1].split(",")
        assert header[-2:] == ["ser_k4_full", "ba_converged"]

    def test_exhaustive_dominance_in_sweep(self, capsys, h_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "10",
            "--k", "4", "--methods", "sdp,bsa,exhaustive", "--seed", "1",
            "--nrand", "30", "--sdp-tol", "1e-5", "--ba-tol", "1e-7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        row = dict(zip(header, map(float, lines[2].split(","))))
        # One kernel scores every method's mask, so the optimum dominates exactly.
        assert row["cutoff_k4_exhaustive"] >= row["cutoff_k4_sdp"]
        assert row["ser_k4_exhaustive"] <= row["ser_k4_bsa"]
        assert row["rate_k4_exhaustive"] >= max(row["rate_k4_sdp"], row["rate_k4_bsa"])

    def test_reproducible(self, capsys, h_file):
        args = ["sweep", "--h-matrix", h_file, "--snr-db", "5", "--k", "4",
                "--methods", "bsa", "--seed", "2", "--ba-tol", "1e-6"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_empty_k_list_rejected(self, capsys, h_file):
        code, out, err = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "5",
            "--k", ",", "--methods", "full",
        )
        assert code == 1
        assert out == ""
        assert "at least one" in err

    def test_unknown_method_rejected(self, capsys, h_file):
        code, _, err = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "5",
            "--k", "4", "--methods", "magic",
        )
        assert code == 1
        assert "unknown method" in err

    def test_k_beyond_alphabet_rejected(self, capsys, h_file):
        code, _, err = run_cli(
            capsys, "sweep", "--h-matrix", h_file, "--snr-db", "5",
            "--k", "99", "--methods", "full",
        )
        assert code == 1
        assert "out of range" in err

    @pytest.mark.parametrize(
        "h_spec, k, methods, message, extra",
        [
            (None, "4,16", "sdp,bsa", "k must be in [2, 15]", ()),
            ("bundled", "16", "sdp,exhaustive", "exceeds the guard", ()),
            (None, "4", "sdp", "n_rand must be in", ("--nrand", "0")),
            (None, "4", "bsa", "restarts must be at least 1", ("--restarts", "0")),
            (None, "4", "sdp", "tol must be positive", ("--sdp-tol", "0")),
            (None, "4", "sdp", "max_iter must be at least 1", ("--sdp-max-iter", "0")),
            (None, "4", "full", "tol must be positive", ("--ba-tol", "0")),
            (None, "4", "sdp", "tol must be positive", ("--sdp-tol", "nan")),
            (None, "4", "full", "tol must be positive", ("--ba-tol", "nan")),
            (None, "4", "full", "max_iter must be at least 1", ("--ba-max-iter", "0")),
            (None, "4", "full", "--seed must be non-negative", ("--seed=-1",)),
            (None, "4,4", "full", "--k values must be distinct", ()),
            (None, "4", "full,full", "--methods values must be distinct", ()),
        ],
        ids=[
            "bsa-k-equals-m", "exhaustive-over-guard", "nrand-0", "restarts-0",
            "sdp-tol-0", "sdp-max-iter-0", "ba-tol-0", "sdp-tol-nan", "ba-tol-nan",
            "ba-max-iter-0", "seed-negative", "k-repeated", "methods-repeated",
        ],
    )
    def test_bad_configuration_rejected_before_any_point(
        self, capsys, h_file, monkeypatch, h_spec, k, methods, message, extra
    ):
        def no_point(*args, **kwargs):
            raise AssertionError("an SNR point was computed")

        monkeypatch.setattr(cli, "build_quantized_mimo", no_point)
        code, out, err = run_cli(
            capsys, "sweep", "--h-matrix", h_spec or h_file, "--snr-db", "0",
            "--k", k, "--methods", methods, *extra,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err


class TestCodedBer:
    def test_csv_schema_and_determinism(self, capsys, h_file, tmp_path):
        mask_file = tmp_path / "mask.json"
        mask_file.write_text(json.dumps({"M": 16, "indices": [0, 5, 10, 15]}))
        args = ["coded-ber", "--h-matrix", h_file, "--mask", str(mask_file),
                "--snr-db", "0,30", "--n", "24", "--total-rate", "1.0",
                "--seed", "0", "--min-frame-errors", "3", "--max-frames", "20"]
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        lines = out1.strip().split("\n")
        assert lines[0] == f"# dmc-shaper v{__version__}"
        assert lines[1] == "snr_db,k,code_rate,frames,bit_errors,ber"
        assert len(lines) == 4
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_duplicate_mask_indices_rejected(self, capsys, h_file, tmp_path):
        mask_file = tmp_path / "mask.json"
        mask_file.write_text(json.dumps({"M": 16, "indices": [0, 0, 5, 10]}))
        code, out, err = run_cli(
            capsys, "coded-ber", "--h-matrix", h_file, "--mask", str(mask_file),
            "--snr-db", "0", "--n", "24", "--total-rate", "1.0",
        )
        assert code == 1
        assert out == ""
        assert "duplicate" in err

    @pytest.mark.parametrize(
        "flag", ["--ensemble=0", "--min-frame-errors=0", "--max-frames=0", "--snr-db=10,10"]
    )
    def test_non_measurement_rejected(self, capsys, h_file, flag):
        code, out, err = run_cli(
            capsys, "coded-ber", "--h-matrix", h_file, "--mask", "full",
            "--snr-db", "10", "--n", "24", "--total-rate", "2.0", flag,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_negative_seed_rejected_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a channel or an LLR table was built")

        monkeypatch.setattr(link, "build_quantized_mimo", no_work)
        monkeypatch.setattr(link, "compute_llrs_block", no_work)
        monkeypatch.setattr(cli, "_load_h", no_work)
        code, out, err = run_cli(
            capsys, "coded-ber", "--h-matrix", "bundled", "--mask", "full",
            "--snr-db", "0,10", "--seed=-1",
        )
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("snr_db", [",", "4000", "0,inf"])
    def test_unusable_snr_rejected(self, capsys, h_file, monkeypatch, snr_db):
        def no_code(*args, **kwargs):
            raise AssertionError("a code was built")

        monkeypatch.setattr(link, "build_ldpc", no_code)
        code, out, err = run_cli(
            capsys, "coded-ber", "--h-matrix", h_file, "--mask", "full",
            f"--snr-db={snr_db}", "--n", "24", "--total-rate", "2.0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"M": 64, "indices": [0, 5, 10, 15]}, "M=64"),
            ({"M": 16, "picks": [0, 5, 10, 15]}, "JSON list"),
            ("0,5,10,15", "JSON list"),
            ({"M": 16, "indices": [0.5, 5, 10, 15]}, "integers"),
            ({"M": None, "indices": [0, 5, 10, 15]}, "M=None"),
            ({"M": 16.7, "indices": [0, 5, 10, 15]}, "M=16.7"),
            ({"M": "16", "indices": [0, 5, 10, 15]}, "M='16'"),
        ],
        ids=["wrong-m", "no-indices", "not-a-list", "non-integer", "m-null", "m-float", "m-string"],
    )
    def test_bad_mask_file_rejected(self, capsys, h_file, tmp_path, doc, message):
        mask_file = tmp_path / "mask.json"
        mask_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "coded-ber", "--h-matrix", h_file, "--mask", str(mask_file),
            "--snr-db", "0", "--n", "24", "--total-rate", "1.0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("ensemble", ["1", "2"])
    def test_rows_follow_snr_order(self, capsys, h_file, ensemble):
        code, out, _ = run_cli(
            capsys, "coded-ber", "--h-matrix", h_file, "--mask", "full",
            "--snr-db", "5,0", "--n", "24", "--total-rate", "2.0",
            "--ensemble", ensemble, "--min-frame-errors", "2", "--max-frames", "4",
        )
        assert code == 0
        rows = out.strip().split("\n")[2:]
        assert [row.split(",")[0] for row in rows] == ["5.0", "0.0"]

    def test_full_mask_keyword(self, capsys, h_file):
        code, out, _ = run_cli(
            capsys, "coded-ber", "--h-matrix", h_file, "--mask", "full",
            "--snr-db", "10", "--n", "24", "--total-rate", "2.0",
            "--seed", "1", "--min-frame-errors", "2", "--max-frames", "8",
        )
        assert code == 0
        row = out.strip().split("\n")[2].split(",")
        assert row[1] == "16"

    def test_mask_from_select_output(self, capsys, mimo_channel_file, h_file, tmp_path):
        sel_file = tmp_path / "sel.json"
        code, out, _ = run_cli(
            capsys, "select", "bsa", "--channel", mimo_channel_file,
            "--k", "4", "--seed", "0", "--out", str(sel_file),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "coded-ber", "--h-matrix", h_file, "--mask", str(sel_file),
            "--snr-db", "20", "--n", "24", "--total-rate", "1.0",
            "--seed", "0", "--min-frame-errors", "2", "--max-frames", "8",
        )
        assert code == 0


def _checkout_env() -> dict:
    """Environment in which a subprocess imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "bsc.json"
        path.write_text(json.dumps({"M": 2, "L": 2, "P": [[0.9, 0.1], [0.1, 0.9]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "dmc_shaper", "validate", "--channel", str(path)],
            capture_output=True, text=True, env=_checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("OK")

    def test_version_flag(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dmc_shaper", "--version"],
            capture_output=True, text=True, env=_checkout_env(),
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout
