"""End-to-end CLI behaviour: reports, exit codes, caching, determinism."""

import csv
import io
import json
import math
import os

import pytest

from xjac.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


F7_ARGS = ["--p", "7", "--f", "1,0,0,0,0,1"]


class TestJacobian:
    def test_golden_row(self, capsys):
        code, out, err = run(capsys, ["jacobian", *F7_ARGS])
        assert code == 0
        (row,) = rows_of(out)
        assert row["schema"] == "1"
        assert row["command"] == "jacobian"
        assert row["experiment_id"] == "jacobian-p7-n1-f1.0.0.0.0.1"
        assert row["p"] == "7" and row["n"] == "1" and row["q"] == "7"
        assert row["modulus"] == ""
        assert row["f"] == "1,0,0,0,0,1"
        assert row["affine_points"] == "7"
        assert row["jacobian_order"] == "50"
        assert (row["weil_low"], row["weil_high"]) == ("7", "177")
        assert row["weil_ok"] == "true"
        assert (row["q2_plus_q"], row["q2_plus_q_plus_1"]) == ("56", "57")
        assert row["spot_checks"] == "128" and row["spot_failures"] == "0"
        assert row["status"] == "ok"
        assert "|J| = 50" in err  # runtime chatter stays off stdout

    def test_extension_field(self, capsys):
        code, out, _ = run(
            capsys, ["jacobian", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1"]
        )
        assert code == 0
        (row,) = rows_of(out)
        assert row["q"] == "9" and row["modulus"] == "1,0,1"
        assert row["jacobian_order"] == "100"

    def test_non_squarefree_f_is_config_error(self, capsys):
        code, out, err = run(capsys, ["jacobian", "--p", "7", "--f", "1,1,0,0,0,1"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, ["jacobian", *F7_ARGS, "--budget", "100"])
        assert code == 3
        assert "error:" in err


class TestExtractSD:
    def test_exact_golden(self, capsys):
        code, out, _ = run(
            capsys, ["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "1"]
        )
        assert code == 0
        (row,) = rows_of(out)
        assert row["sd"] == "0.168571428571"
        assert row["col"] == "0.1688"
        assert row["sd_sqrt_q"] == "0.445998078151"
        assert row["bound_coords"] == "0.0625"
        assert row["bound_bits"] == ""
        assert row["envelope"] == "1.88982236505"
        assert row["ratio_coords"] == "2.69714285714"
        assert row["mode"] == "exact"
        assert row["samples"] == "" and row["seed"] == ""
        assert row["m"] == "7"
        assert row["experiment_id"] == "extract-sd-p7-n1-f1.0.0.0.0.1-sum-k1-exact"

    def test_montecarlo_golden(self, capsys):
        argv = [
            "extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "1",
            "--mode", "montecarlo", "--samples", "1000", "--seed", "42",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        (row,) = rows_of(out)
        assert row["sd"] == "0.153571428571"
        assert row["samples"] == "1000" and row["seed"] == "42"
        assert row["experiment_id"].endswith("-montecarlo-N1000-s42")

    def test_montecarlo_requires_samples_and_seed(self, capsys):
        base = ["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "1",
                "--mode", "montecarlo"]
        assert run(capsys, [*base, "--seed", "1"])[0] == 2
        assert run(capsys, [*base, "--samples", "10"])[0] == 2

    def test_bitwise_needs_prime_field(self, capsys):
        code, _, err = run(
            capsys,
            ["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1",
             "--extractor", "sk", "--k", "1"],
        )
        assert code == 2
        assert "error:" in err

    def test_k_out_of_range(self, capsys):
        code, _, _ = run(
            capsys, ["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "2"]
        )
        assert code == 2
        code, _, _ = run(
            capsys, ["extract-sd", *F7_ARGS, "--extractor", "sk", "--k", "3"]
        )
        assert code == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        for mode_args in (
            [],
            ["--mode", "montecarlo", "--samples", "500", "--seed", "7"],
        ):
            argv = ["extract-sd", *F7_ARGS, "--extractor", "prod", "--k", "1",
                    *mode_args, "--out"]
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert run(capsys, [*argv, str(a)])[0] == 0
            assert run(capsys, [*argv, str(b)])[0] == 0
            assert a.read_bytes() == b.read_bytes()


class TestCharsum:
    def test_interval_golden(self, capsys):
        code, out, _ = run(capsys, ["charsum", "--mode", "interval", "--p", "7",
                                    "--L", "7"])
        assert code == 0
        (row,) = rows_of(out)
        assert row["magnitude"] == "7"
        assert row["bound"] == "19.6514844544"
        assert row["status"] == "pass"
        assert row["experiment_id"] == "charsum-interval-p7-L7"

    def test_interval_all_lengths(self, capsys):
        code, out, _ = run(capsys, ["charsum", "--mode", "interval", "--p", "31"])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 31
        assert all(r["status"] == "pass" for r in rows)
        assert all(float(r["magnitude"]) <= float(r["bound"]) + 1e-9 for r in rows)

    def test_orthogonality(self, capsys):
        code, out, _ = run(capsys, ["charsum", "--mode", "orthogonality", "--p", "7"])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 7
        assert rows[0]["a"] == "0" and rows[0]["expected"] == "7"
        assert all(r["expected"] == "0" for r in rows[1:])
        assert all(r["status"] == "pass" for r in rows)

    def test_mordell_every_quadratic(self, capsys):
        code, out, _ = run(capsys, ["charsum", "--mode", "mordell", "--p", "5"])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 25 * 4  # (c0, c1) pairs times nontrivial a
        root_q = math.sqrt(5)
        for r in rows:
            assert r["status"] == "pass"
            assert float(r["magnitude"]) == pytest.approx(root_q, rel=1e-6)
            assert float(r["magnitude"]) <= float(r["bound"])

    def test_winterhof_all_masks(self, capsys):
        code, out, _ = run(capsys, ["charsum", "--mode", "winterhof", "--p", "3",
                                    "--n", "2"])
        assert code == 0
        rows = rows_of(out)
        assert [r["basis"] for r in rows] == ["", "0", "1", "0;1"]
        assert all(r["magnitude"] == "9" and r["status"] == "pass" for r in rows)

    def test_winterhof_single_basis(self, capsys):
        code, out, _ = run(capsys, ["charsum", "--mode", "winterhof", "--p", "3",
                                    "--n", "3", "--basis", "0,2"])
        assert code == 0
        (row,) = rows_of(out)
        assert row["basis"] == "0;2"
        assert row["magnitude"] == "27" and row["expected"] == "27"

    def test_winterhof_budget_counts_only_the_given_basis(self, capsys):
        # 27 * 3 evaluations for the one basis {0}, well inside 100
        code, out, _ = run(capsys, ["charsum", "--mode", "winterhof", "--p", "3",
                                    "--n", "3", "--basis", "0", "--budget", "100"])
        assert code == 0
        (row,) = rows_of(out)
        assert row["basis"] == "0" and row["status"] == "pass"

    def test_winterhof_non_integer_basis(self, capsys):
        code, out, err = run(capsys, ["charsum", "--mode", "winterhof", "--p", "3",
                                      "--n", "3", "--basis", "0,x"])
        assert code == 2 and out == ""
        assert "option 'basis' has non-integer entries" in err

    def test_interval_rejects_extension_field(self, capsys):
        code, _, _ = run(capsys, ["charsum", "--mode", "interval", "--p", "3",
                                  "--n", "2", "--L", "2"])
        assert code == 2

    def test_unknown_mode(self, capsys):
        code, _, _ = run(capsys, ["charsum", "--mode", "gauss", "--p", "7"])
        assert code == 2


class TestSweep:
    ARGV = ["sweep", "--p", "7,11,13", "--c", "0,1,2", "--f", "1,c,0,0,0,1",
            "--extractor", "sum,prod,sk,pk", "--k", "1"]

    def test_golden_grid(self, capsys):
        code, out, err = run(capsys, self.ARGV)
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 13  # 3 primes x 4 extractors + summary
        by_id = {r["experiment_id"]: r for r in rows}
        assert by_id["extract-sd-p7-n1-f1.0.0.0.0.1-sum-k1-exact"]["sd"] == "0.168571428571"
        assert by_id["extract-sd-p11-n1-f1.1.0.0.0.1-sum-k1-exact"]["sd"] == "0.181818181818"
        assert by_id["extract-sd-p11-n1-f1.1.0.0.0.1-sk-k1-exact"]["sd"] == "0"
        assert by_id["extract-sd-p13-n1-f1.2.0.0.0.1-prod-k1-exact"]["sd"] == "0.115384615385"
        summary = rows[-1]
        assert summary["experiment_id"] == "summary"
        assert summary["sd_sqrt_q"] == "0.603022689156"
        assert summary["ratio_coords"] == "4.36363636364"
        assert summary["ratio_bits"] == "0.154685590513"
        assert "12 cells, 0 budget warning(s)" in err

    def test_grid_order_is_p_then_extractor_then_k(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--p", "7", "--f", "1,0,0,0,0,1",
                                    "--extractor", "sum,prod", "--k", "1,1"])
        assert code == 0
        rows = rows_of(out)[:-1]
        kinds = [r["extractor"] for r in rows]
        assert kinds == ["sum", "sum", "prod", "prod"]

    def test_budget_cell_flagged_not_fatal(self, capsys):
        argv = ["sweep", "--p", "7,13", "--c", "0,2", "--f", "1,c,0,0,0,1",
                "--extractor", "sum", "--k", "1", "--budget", "180"]
        code, out, err = run(capsys, argv)
        assert code == 0
        rows = rows_of(out)
        by_p = {r["p"]: r for r in rows if r["experiment_id"] != "summary"}
        assert by_p["7"]["status"] == "ok"
        assert by_p["13"]["status"] == "budget_exceeded"
        assert by_p["13"]["sd"] == ""
        assert "1 budget warning(s)" in err

    def test_empty_grid(self, capsys):
        code, _, err = run(capsys, ["sweep", "--p", "", "--f", "1,0,0,0,0,1",
                                    "--extractor", "sum", "--k", "1"])
        assert code == 2
        assert "empty" in err

    def test_c_list_length_mismatch(self, capsys):
        code, _, _ = run(capsys, ["sweep", "--p", "7,11", "--c", "0",
                                  "--f", "1,c,0,0,0,1", "--extractor", "sum",
                                  "--k", "1"])
        assert code == 2

    def test_template_without_c_needs_no_list(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--p", "7", "--f", "1,0,0,0,0,1",
                                    "--extractor", "sum", "--k", "1"])
        assert code == 0
        assert rows_of(out)[0]["f"] == "1,0,0,0,0,1"


class TestCache:
    def test_cold_then_warm_byte_identity(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ["jacobian", *F7_ARGS, "--cache-dir", str(cache), "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"

        code, _, err = run(capsys, [*argv, str(a)])
        assert code == 0 and "computed" in err
        files = os.listdir(cache)
        assert len(files) == 1 and files[0].startswith("jacobian-")

        code, _, err = run(capsys, [*argv, str(b)])
        assert code == 0 and "cache" in err
        assert a.read_bytes() == b.read_bytes()

    def test_cold_then_warm_montecarlo_extension_field(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ["extract-sd", "--p", "3", "--n", "3", "--f", "0,1,0,0,0,1",
                "--extractor", "sum", "--k", "2", "--mode", "montecarlo",
                "--samples", "2000", "--seed", "5", "--cache-dir", str(cache)]

        code, cold, err = run(capsys, argv)
        assert code == 0 and "enumeration = computed" in err
        code, warm, err = run(capsys, argv)
        assert code == 0 and "enumeration = cache" in err
        assert warm == cold and rows_of(cold)

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("XJAC_CACHE_DIR", str(cache))
        code, _, _ = run(capsys, ["jacobian", *F7_ARGS])
        assert code == 0
        assert len(os.listdir(cache)) == 1

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("XJAC_CACHE_DIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        code, _, _ = run(capsys, ["jacobian", *F7_ARGS, "--cache-dir", str(chosen)])
        assert code == 0
        assert chosen.exists()
        assert not (tmp_path / "ignored").exists()


class TestConfigFile:
    def test_file_values_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"p": 7, "f": "1,0,0,0,0,1", "extractor": "sum", "k": 1}
        ))
        code, out, _ = run(capsys, ["extract-sd", "--config", str(cfg)])
        assert code == 0
        assert rows_of(out)[0]["extractor"] == "sum"

        code, out, _ = run(
            capsys, ["extract-sd", "--config", str(cfg), "--extractor", "prod"]
        )
        assert code == 0
        assert rows_of(out)[0]["extractor"] == "prod"
        assert rows_of(out)[0]["sd"] == "0.174285714286"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"p": 7, "f": "1,0,0,0,0,1", "Extractor": "sum"}))
        code, _, err = run(capsys, ["extract-sd", "--config", str(cfg),
                                    "--extractor", "sum", "--k", "1"])
        assert code == 2
        assert "Extractor" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["extract-sd", "--config",
                                  str(tmp_path / "nope.json")])
        assert code == 2


class TestOutputFormats:
    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, ["extract-sd", *F7_ARGS, "--extractor", "sum",
                                    "--k", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["command"] == "extract-sd"
        (row,) = doc["rows"]
        assert row["sd"] == 0.168571428571
        assert row["bound_bits"] is None
        assert out.endswith("\n")
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_json_byte_identical(self, capsys, tmp_path):
        argv = ["jacobian", *F7_ARGS, "--format", "json", "--out"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, [*argv, str(a)])[0] == 0
        assert run(capsys, [*argv, str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_uses_lf_only(self, capsys, tmp_path):
        out_file = tmp_path / "r.csv"
        run(capsys, ["jacobian", *F7_ARGS, "--out", str(out_file)])
        data = out_file.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_no_subcommand(self, capsys):
        assert run(capsys, [])[0] == 2
