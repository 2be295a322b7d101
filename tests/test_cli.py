"""End-to-end CLI behaviour: reports, exit codes, caching, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from xjac import cli
from xjac.cli import (
    SCHEMA_VERSION,
    _csv_cell,
    _json_value,
    build_parser,
    main,
    render_csv,
    render_json,
)
from xjac.curve import HyperellipticCurve, NotSquarefreeError
from xjac.field import finite_field
from xjac.stats import RandomSource


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


F7_ARGS = ["--p", "7", "--f", "1,0,0,0,0,1"]


def json_reference(command, columns, rows):
    """The JSON report the direct way: one json.dumps with indent=2."""
    payload = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "rows": [{col: _json_value(row.get(col)) for col in columns} for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_reference(columns, rows):
    """The CSV report the direct way: _csv_cell per cell into csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


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
        # the group-law spot checks, by Cantor's algorithm over F_9
        assert row["spot_checks"] == "128" and row["spot_failures"] == "0"
        assert row["status"] == "ok"

    def test_spot_check_operands(self, capsys, monkeypatch):
        """The row records only how many checks ran; the operands are the
        pairs of 64 below(|J|, 64) draws from RandomSource(0), in turn."""
        calls = []
        original = HyperellipticCurve.cantor_add

        def record(self, A, B):
            calls.append((A, B))
            return original(self, A, B)

        monkeypatch.setattr(HyperellipticCurve, "cantor_add", record)
        assert run(capsys, ["jacobian", *F7_ARGS])[0] == 0

        J = HyperellipticCurve(finite_field(7), "1,0,0,0,0,1").enumerate_jacobian()
        picks = [J[i] for i in RandomSource(0).below(len(J), 64)]
        # each check composes A + B, then B + A, A + 0 and A + (-A)
        assert len(calls) == 4 * 32
        assert calls[0::4] == list(zip(picks[0::2], picks[1::2]))
        assert calls[1::4] == list(zip(picks[1::2], picks[0::2]))

    def test_failed_spot_checks_exit_1(self, capsys, monkeypatch):
        """A broken group law still writes its fail row, then exits 1."""
        original = HyperellipticCurve._cantor_general_raw

        def broken(self, *args):
            u, v = original(self, *args)
            return u, v[:1]  # drops v's linear coefficient

        monkeypatch.setattr(HyperellipticCurve, "_cantor_general_raw", broken)
        code, out, _ = run(
            capsys, ["jacobian", "--p", "7", "--n", "2", "--f", "1,0,0,0,0,1"]
        )
        assert code == 1
        (row,) = rows_of(out)
        assert row["spot_failures"] != "0"
        assert row["status"] == "fail"

    def test_non_squarefree_f_is_config_error(self, capsys):
        code, out, err = run(capsys, ["jacobian", "--p", "7", "--f", "1,1,0,0,0,1"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, ["jacobian", *F7_ARGS, "--budget", "100"])
        assert code == 3
        assert "error:" in err
        code, out, err = run(capsys, ["jacobian", "--p", "1009", "--f", "1,3,0,0,0,1"])
        assert (code, out) == (3, "")
        assert err == "error: Jacobian may hold up to 1152466 classes, budget is 1000000\n"

    def test_budget_checked_before_a_warm_cache(self, capsys, tmp_path):
        cache_args = ["--cache-dir", str(tmp_path)]
        assert run(capsys, ["jacobian", *F7_ARGS, *cache_args])[0] == 0
        assert os.listdir(tmp_path)
        # (sqrt(7) + 1)^4 ~ 176.7, so the warm cache must not rescue 100
        code, out, err = run(capsys, ["jacobian", *F7_ARGS, *cache_args, "--budget", "100"])
        assert code == 3 and out == ""
        assert err == "error: Jacobian may hold up to 177 classes, budget is 100\n"


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
        code, out, _ = run(capsys, [*argv[:-1], "1"])
        assert code == 0
        assert rows_of(out)[0]["sd"] == "0.186571428571"

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

    @pytest.mark.parametrize("mode_args", [
        [], ["--mode", "montecarlo", "--samples", "10", "--seed", "1"],
    ], ids=["exact", "montecarlo"])
    def test_over_budget_exits_3(self, capsys, monkeypatch, mode_args):
        def no_count(curve):
            raise AssertionError("counted past the budget")

        # an exact count over F_p needs no table: both routes are forbidden
        monkeypatch.setattr(HyperellipticCurve, "_class_table", no_count)
        monkeypatch.setattr(HyperellipticCurve, "value_counts", no_count)
        code, out, err = run(capsys, ["extract-sd", "--p", "1009", "--f", "1,3,0,0,0,1",
                                      "--extractor", "sum", "--k", "1", *mode_args])
        assert code == 3 and out == ""
        assert err == "error: Jacobian may hold up to 1152466 classes, budget is 1000000\n"

    @pytest.mark.parametrize("samples, budget", [
        ("1000001", []), ("500", ["--budget", "499"]),
    ], ids=["default-budget", "explicit-budget"])
    def test_samples_over_budget_exits_3(self, capsys, monkeypatch, samples, budget):
        """Monte-Carlo holds one int per draw, so the sample count is
        charged too, before any count or draw (p = 7 has at most 177
        classes, under both budgets)."""
        def fail(*_):
            raise AssertionError("counted or drew past the budget")

        monkeypatch.setattr(HyperellipticCurve, "_class_table", fail)
        monkeypatch.setattr(HyperellipticCurve, "value_counts", fail)
        monkeypatch.setattr(RandomSource, "below", fail)
        code, out, err = run(capsys, ["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "1",
                                      "--mode", "montecarlo", "--samples", samples,
                                      "--seed", "1", *budget])
        limit = budget[1] if budget else "1000000"
        assert code == 3 and out == ""
        assert err == f"error: montecarlo mode draws {samples} samples, budget is {limit}\n"

    def test_samples_at_budget_run(self, capsys):
        argv = ["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "1",
                "--mode", "montecarlo", "--samples", "500", "--seed", "1", "--budget", "500"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and rows_of(out)[0]["samples"] == "500"


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
        code, out, _ = run(capsys, ["charsum", "--mode", "orthogonality", "--p", "3",
                                    "--n", "6"])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 729 and rows[0]["expected"] == "729"
        assert all(r["status"] == "pass" for r in rows)

    def test_failing_row_exits_1(self, capsys, monkeypatch):
        """One row off by 5 is still written, counted on stderr, and makes
        the run exit 1."""
        exact = cli.orthogonality_sum
        monkeypatch.setattr(
            cli, "orthogonality_sum", lambda K, a: exact(K, a) + (5 if a == 1 else 0)
        )
        code, out, err = run(
            capsys, ["charsum", "--mode", "orthogonality", "--p", "3", "--n", "2"]
        )
        assert code == 1
        rows = rows_of(out)
        assert len(rows) == 9
        assert [r["a"] for r in rows if r["status"] != "pass"] == ["1"]
        assert "1 failures" in err

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
        code, out, _ = run(capsys, ["charsum", "--mode", "winterhof", "--p", "3",
                                    "--n", "7", "--basis", "0"])
        assert code == 0
        (row,) = rows_of(out)
        assert row["magnitude"] == "2187" and row["status"] == "pass"

    def test_winterhof_budget_counts_only_the_given_basis(self, capsys):
        # 27 * 3 evaluations for the one basis {0}, well inside 100
        code, out, _ = run(capsys, ["charsum", "--mode", "winterhof", "--p", "3",
                                    "--n", "3", "--basis", "0", "--budget", "100"])
        assert code == 0
        (row,) = rows_of(out)
        assert row["basis"] == "0" and row["status"] == "pass"

    # without --basis, winterhof charges q * p^|b| summed over every subset
    # b of 0..n-1, which is q * (p + 1)^n: 27 * 4^3 and 25 * 6^2
    @pytest.mark.parametrize("argv, est", [
        (["--mode", "orthogonality", "--p", "3", "--n", "2", "--budget", "80"], 81),
        (["--mode", "winterhof", "--p", "3", "--n", "3", "--basis", "0,1,2",
          "--budget", "100"], 729),
        (["--mode", "winterhof", "--p", "3", "--n", "3", "--budget", "100"], 1728),
        (["--mode", "winterhof", "--p", "5", "--n", "2", "--budget", "100"], 900),
        (["--mode", "mordell", "--p", "37"], 1823508),
    ], ids=["orthogonality", "winterhof", "winterhof-all-subsets-F27",
            "winterhof-all-subsets-F25", "mordell-default-budget"])
    def test_over_budget_exits_3(self, capsys, argv, est):
        code, out, err = run(capsys, ["charsum", *argv])
        budget = argv[-1] if "--budget" in argv else "1000000"
        assert code == 3 and out == ""
        assert err == (
            f"error: charsum mode {argv[1]} needs about {est} character evaluations, "
            f"budget is {budget}\n"
        )

    @pytest.mark.parametrize("argv, est", [
        (["--mode", "interval", "--p", "4000037"], 16000296001369),
        (["--mode", "winterhof", "--p", "3", "--n", "18"], 26623333280885243904),
    ], ids=["interval", "winterhof-all-subsets"])
    def test_over_budget_builds_nothing_first(self, capsys, argv, est):
        """The estimate is a closed form of the options: neither the p
        lengths L nor the 2^n subsets are built before the budget is
        judged, so the run exits 3 having allocated under 1 MB."""
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["charsum", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == (
            f"error: charsum mode {argv[1]} needs about {est} character evaluations, "
            "budget is 1000000\n"
        )
        assert peak < 2**20

    def test_winterhof_non_integer_basis(self, capsys):
        code, out, err = run(capsys, ["charsum", "--mode", "winterhof", "--p", "3",
                                      "--n", "3", "--basis", "0,x"])
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            "xjac charsum: error: argument --basis: invalid int_list value: '0,x'"
        )

    def test_interval_budget_charges_the_largest_L(self, capsys):
        # p * max(L) = 331^2 fits the default 10^6; 1009^2 does not
        code, out, _ = run(capsys, ["charsum", "--mode", "interval", "--p", "331"])
        assert code == 0 and len(rows_of(out)) == 331
        code, out, err = run(capsys, ["charsum", "--mode", "interval", "--p", "1009"])
        assert code == 3 and out == ""
        assert "needs about 1018081 character evaluations" in err

    @pytest.mark.parametrize("budget", [[], ["--budget", str(10**12)]],
                             ids=["default-budget", "huge-budget"])
    def test_interval_L_out_of_range_exits_2(self, capsys, monkeypatch, budget):
        """L is checked before the p * max(L) budget, so an L past p exits 2
        at any budget, before a sum is taken."""
        monkeypatch.setattr(cli, "interval_char_sum", None)
        code, out, err = run(capsys, ["charsum", "--mode", "interval", "--p", "127",
                                      "--L", "100000", *budget])
        assert (code, out) == (2, "")
        assert err == "error: L must be in [1, 127], got 100000\n"

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_cache_dir_is_not_an_option(self, capsys, tmp_path, via):
        """charsum builds no curve, so it declares no --cache-dir: the flag
        and the config key both exit 2 and create nothing."""
        cache_dir = tmp_path / "cache"
        if via == "flag":
            extra = ["--cache-dir", str(cache_dir)]
            last = f"xjac: error: unrecognized arguments: --cache-dir {cache_dir}"
        else:
            path = tmp_path / "cache.json"
            path.write_text(json.dumps({"cache_dir": str(cache_dir)}))
            extra = ["--config", str(path)]
            last = "error: config file key 'cache_dir' is not a known option"
        code, out, err = run(capsys, ["charsum", "--mode", "mordell", "--p", "5", *extra])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == last
        assert not cache_dir.exists()

    def test_interval_rejects_extension_field(self, capsys):
        code, _, _ = run(capsys, ["charsum", "--mode", "interval", "--p", "3",
                                  "--n", "2", "--L", "2"])
        assert code == 2

    def test_unknown_mode(self, capsys):
        code, _, _ = run(capsys, ["charsum", "--mode", "gauss", "--p", "7"])
        assert code == 2

    def test_mordell_one_poly_char_sum_per_row(self, capsys, monkeypatch):
        calls = []
        checked = cli.poly_char_sum

        def record(field, P, a):
            calls.append((P.coeffs, a))
            return checked(field, P, a)

        monkeypatch.setattr(cli, "poly_char_sum", record)
        code, out, _ = run(capsys, ["charsum", "--mode", "mordell", "--p", "5"])
        assert code == 0
        rows = rows_of(out)
        assert len(calls) == len(set(calls)) == len(rows) == 25 * 4
        assert [(r["poly"], r["a"]) for r in rows] == [
            (",".join(map(str, coeffs)), str(a)) for coeffs, a in calls
        ]

    @pytest.mark.parametrize("argv, name, column, cell, count", [
        (["--mode", "interval", "--p", "7"], "interval_char_sum", "L",
         lambda p, L: str(L), 7),  # L = 1..7
        (["--mode", "winterhof", "--p", "3", "--n", "3"], "winterhof_sum", "basis",
         lambda K, V: ";".join(map(str, V.basis)), 8),  # the 2^3 bases
    ])
    def test_one_sum_per_row_by_its_cli_name(self, capsys, monkeypatch, argv, name,
                                             column, cell, count):
        """Each row calls the sum the cli module imports, looked up there by
        name, so a stand-in patched on cli (a tracing span) sees every row."""
        calls = []
        checked = getattr(cli, name)

        def record(*args):
            calls.append(args)
            return checked(*args)

        monkeypatch.setattr(cli, name, record)
        code, out, _ = run(capsys, ["charsum", *argv])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == count
        assert [r[column] for r in rows] == [cell(*args) for args in calls]

    # SHA-256 of stdout, taken from the renderer that encoded each row with
    # json.dumps and each CSV cell with _csv_cell, before the per-report
    # key and float memo replaced it
    @pytest.mark.parametrize("argv, digest", [
        (["--mode", "mordell", "--p", "7", "--format", "json"],
         "0c310e54a025d978d85e541682d7192d3da57896b2294b6fba1f714993b93078"),
        (["--mode", "mordell", "--p", "7", "--format", "csv"],
         "47d01bf2d0587a4ab67341727b68a4c770dd7c3694f42d6e1ed1e036b5ccc11c"),
        (["--mode", "interval", "--p", "13", "--format", "json"],
         "4af4b86f9bc0d2add6a42f632f67595c77771030710cb55b0eaf3f41bfcfc704"),
    ], ids=["mordell-json", "mordell-csv", "interval-json"])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, ["charsum", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


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

    def test_one_counting_pass_per_curve(self, capsys, monkeypatch):
        passes = []
        count = HyperellipticCurve.value_counts

        def counting(curve):
            if curve._counts is None:
                passes.append(curve.field.p)
            return count(curve)

        monkeypatch.setattr(HyperellipticCurve, "value_counts", counting)
        code, out, _ = run(capsys, [*self.ARGV, "--k", "1,1"])
        assert code == 0 and len(rows_of(out)) == 3 * 4 * 2 + 1
        assert passes == [7, 11, 13]

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
        code, out, err = run(capsys, ["sweep", "--p", "7,1009", "--f", "1,0,0,0,0,1",
                                      "--extractor", "sum", "--k", "1"])
        assert code == 0
        assert [r["status"] for r in rows_of(out)] == ["ok", "budget_exceeded", "ok"]
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

    def test_template_without_squarefree_instance_stops_after_9_tries(
        self, capsys, monkeypatch
    ):
        """x^5 + c*x^2 has the double root 0 for every c; the search gives
        up after 9 values of c, not after all q."""
        built = []

        def counting(field, f):
            built.append(f)
            return HyperellipticCurve(field, f)

        monkeypatch.setattr(cli, "HyperellipticCurve", counting)
        code, out, err = run(capsys, ["sweep", "--p", "100003", "--f", "0,0,c,0,0,1",
                                      "--c", "1", "--extractor", "sum"])
        assert (code, out) == (2, "")
        assert err == (
            "error: no squarefree instance of template '0,0,c,0,0,1' over F_100003\n"
        )
        assert len(built) <= 9

    @staticmethod
    def full_scan(field, tokens, c):
        """The first c' = c, c + 1, ... (mod q) over all q values whose
        instance is squarefree, or None."""
        for i in range(field.q):
            cur = (c + i) % field.q
            try:
                HyperellipticCurve(field, ",".join(str(cur) if t == "c" else t
                                                   for t in tokens))
                return cur
            except NotSquarefreeError:
                pass
        return None

    def test_template_search_finds_the_full_scan_c(self):
        """Seeded templates, some starting at a c whose discriminant
        vanishes and one with no squarefree instance: the bounded search
        resolves each to the instance a scan of all q values finds."""
        rng = random.Random(29)
        cases = [((7, 1), "c,0,0,0,0,1", 0), ((3, 1), "0,0,c,0,0,1", 2),
                 ((11, 1), "0,0,c,0,0,1", 5), ((3, 2), "c,0,0,0,0,1", 9)]
        for _ in range(150):
            p, n = rng.choice([(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)])
            q = p**n
            tokens = [str(rng.randrange(q)) for _ in range(5)] + ["1"]
            for i in rng.sample(range(5), rng.randint(1, 3)):
                tokens[i] = "c"
            cases.append(((p, n), ",".join(tokens), rng.randrange(2 * q)))
        skipped = 0
        for (p, n), template, c in cases:
            field = finite_field(p, n)
            tokens = template.split(",")
            want = self.full_scan(field, tokens, c)
            if want is None:
                with pytest.raises(
                    ValueError,
                    match=f"^no squarefree instance of template '{template}' over F_{field.q}$",
                ):
                    cli._resolve_template(field, template, c)
                continue
            skipped += want != c % field.q
            curve = cli._resolve_template(field, template, c)
            assert curve.f.to_string() == ",".join(
                str(want) if t == "c" else t for t in tokens
            ), (p, n, template, c)
        assert skipped >= 10

    @pytest.mark.parametrize("f, c, message", [
        ("1,0,0,0,0,1", ["--c", "3"],
         "--c values were given but the f template has no 'c' token"),
        ("1,c,0,0,0,1", [], "f template uses 'c' but no --c values were given"),
    ], ids=["c-without-token", "token-without-c"])
    def test_c_and_template_token_go_together(self, capsys, monkeypatch, f, c, message):
        """A --c list with no bare c token in --f, or the converse, exits 2
        before a field is built or a class counted."""
        monkeypatch.setattr(cli, "finite_field", None)
        monkeypatch.setattr(HyperellipticCurve, "value_counts", None)
        code, out, err = run(capsys, ["sweep", "--p", "7", *c, "--f", f,
                                      "--extractor", "sum"])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


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

        # Monte-Carlo samples counted runs of classes, so it leaves the
        # cache empty and the second run matches the first byte for byte
        code, cold, err = run(capsys, argv)
        assert code == 0 and "tally = sampled" in err
        code, warm, err = run(capsys, argv)
        assert code == 0 and "tally = sampled" in err
        assert warm == cold and rows_of(cold)
        assert not cache.exists() or not os.listdir(cache)

    def test_exact_paths_neither_read_nor_write_the_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        exact = [
            ["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "1"],
            ["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1",
             "--extractor", "prod", "--k", "2"],
            TestSweep.ARGV,
        ]
        for argv in exact:
            code, _, err = run(capsys, [*argv, "--cache-dir", str(cache)])
            assert code == 0 and "enumeration" not in err
            assert not cache.exists() or not os.listdir(cache)
            if argv[0] == "extract-sd":
                assert "tally = counted" in err

        mc = [*exact[0], "--mode", "montecarlo", "--samples", "100", "--seed", "1"]
        code, first, err = run(capsys, [*mc, "--cache-dir", str(cache)])
        assert code == 0 and "enumeration" not in err and "tally = sampled" in err
        assert not cache.exists() or not os.listdir(cache)
        code, again, _ = run(capsys, [*mc, "--cache-dir", str(cache)])
        assert code == 0 and again == first
        code, _, _ = run(capsys, ["jacobian", "--p", "11", "--f", "1,1,0,0,0,1",
                                  "--cache-dir", str(cache)])
        assert code == 0 and len(os.listdir(cache)) == 1

    def test_exact_paths_never_enumerate(self, capsys, monkeypatch):
        argvs = [
            ["extract-sd", *F7_ARGS, "--extractor", "pk", "--k", "2"],
            ["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1",
             "--extractor", "sum", "--k", "2"],
            TestSweep.ARGV,
            ["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1",
             "--extractor", "prod", "--k", "2", "--mode", "montecarlo",
             "--samples", "500", "--seed", "3"],
        ]
        runs = [run(capsys, argv) for argv in argvs]
        assert [code for code, _, _ in runs] == [0] * len(argvs)
        before = [out for _, out, _ in runs]

        def forbidden(*args, **kwargs):
            raise AssertionError("extract-sd or sweep enumerated or used the cache")

        monkeypatch.setattr(HyperellipticCurve, "enumerate_jacobian", forbidden)
        for name in ("ensure_jacobian", "load", "save"):
            monkeypatch.setattr(cli.cache, name, forbidden)
        assert [run(capsys, argv)[1] for argv in argvs] == before

    def test_env_var_is_ignored(self, capsys, tmp_path, monkeypatch):
        """Only --cache-dir or the cache_dir config key set the cache;
        XJAC_CACHE_DIR is not read."""
        before = run(capsys, ["jacobian", *F7_ARGS])[:2]
        monkeypatch.setenv("XJAC_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        assert run(capsys, ["jacobian", *F7_ARGS])[:2] == before
        assert os.listdir(tmp_path) == []


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

    # every option of each subcommand, set through the config file alone
    FULL = {
        "jacobian": {"p": 3, "n": 2, "modulus": "2,2,1", "f": "1,0,0,0,0,1"},
        "extract-sd": {"p": 3, "n": 2, "modulus": [2, 2, 1], "f": "1,0,0,0,0,1",
                       "extractor": "sum", "k": 2, "mode": "montecarlo",
                       "samples": 50, "seed": 3},
        "charsum": {"p": 3, "n": 2, "modulus": "2,2,1", "mode": "winterhof",
                    "basis": "0", "L": 2},
        "sweep": {"p": [7, 11], "n": 1, "f": "1,c,0,0,0,1",
                  "extractor": ["sum", "sk"], "k": "1", "c": "0,1"},
    }

    @pytest.mark.parametrize("command", sorted(FULL))
    def test_every_option_dest_is_a_config_key(self, capsys, tmp_path, command):
        dests = set(vars(build_parser().parse_args([command])))
        cfg = self.FULL[command] | {
            "out": str(tmp_path / "report.json"),
            "format": "json",
            "budget": 10**6,
        }
        if command != "charsum":  # the one command without --cache-dir
            cfg["cache_dir"] = str(tmp_path / "cache")
        assert set(cfg) == dests - {"command", "func", "config"}
        path = tmp_path / "all.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, [command, "--config", str(path)])
        assert code == 0, err
        assert out == ""
        assert json.loads((tmp_path / "report.json").read_text())["rows"]

    @pytest.mark.parametrize("command", sorted(FULL))
    @pytest.mark.parametrize("key", ["config", "bogus"])
    def test_config_and_unknown_keys_rejected(self, capsys, tmp_path, command, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.FULL[command] | {key: "x"}))
        code, out, err = run(capsys, [command, "--config", str(path)])
        assert code == 2 and out == ""
        assert f"config file key {key!r} is not a known option" in err

    def test_bad_format_rejected_before_any_work(self, capsys, tmp_path, monkeypatch):
        """A config file's format is a --format flag to the one parser, so
        its choices reject it before enumeration or the cache."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "xml"}))
        cache_dir = tmp_path / "cache"
        monkeypatch.setattr(HyperellipticCurve, "enumerate_jacobian", None)
        code, out, err = run(capsys, ["jacobian", *F7_ARGS, "--config", str(path),
                                      "--cache-dir", str(cache_dir)])
        assert (code, out) == (2, "")
        # the choices list after this text is worded differently across Pythons
        assert "xjac jacobian: error: argument --format: invalid choice: 'xml'" in err
        assert not cache_dir.exists()

    @pytest.mark.parametrize("command", sorted(FULL))
    def test_config_route_is_flags_route(self, capsys, tmp_path, command):
        """The same values as a config file and as flags give the same bytes
        and exit code: the file is read as the flags it stands for."""
        path = tmp_path / "full.json"
        path.write_text(json.dumps(self.FULL[command]))
        flags = []
        for key, val in self.FULL[command].items():
            text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
            flags += ["--" + key.replace("_", "-"), text]
        from_file = run(capsys, [command, "--config", str(path)])
        from_flags = run(capsys, [command, *flags])
        assert from_file[0] == from_flags[0] == 0
        assert from_file[1] == from_flags[1] != ""

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_directory_checked_before_any_work(self, capsys, tmp_path, monkeypatch, via):
        """--out's directory is checked right after parsing: a missing one
        exits 2 before enumeration, and the cache directory stays empty."""
        missing = str(tmp_path / "missing" / "r.csv")
        out_args = ["--out", missing]
        if via == "config":
            path = tmp_path / "out.json"
            path.write_text(json.dumps({"out": missing}))
            out_args = ["--config", str(path)]
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setattr(HyperellipticCurve, "enumerate_jacobian", None)
        code, out, err = run(capsys, ["jacobian", *F7_ARGS, *out_args,
                                      "--cache-dir", str(cache_dir)])
        assert (code, out) == (2, "")
        assert err == f"error: --out {missing}: no such directory\n"
        assert os.listdir(cache_dir) == []

    def test_out_naming_a_directory_checked_before_any_work(self, capsys, tmp_path):
        """An --out that names an existing directory exits 2 up front: no
        report on stdout and no cache file written."""
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        code, out, err = run(capsys, ["jacobian", *F7_ARGS, "--out", str(tmp_path),
                                      "--cache-dir", str(cache_dir)])
        assert (code, out) == (2, "")
        assert err == f"error: --out {tmp_path}: is a directory\n"
        assert os.listdir(cache_dir) == []

    def test_null_value_counts_as_not_given(self, capsys, tmp_path):
        path = tmp_path / "nulls.json"
        path.write_text(json.dumps(
            {"p": 7, "n": None, "f": "1,0,0,0,0,1", "budget": None, "out": None}
        ))
        code, out, _ = run(capsys, ["jacobian", "--config", str(path)])
        assert code == 0
        assert out == run(capsys, ["jacobian", *F7_ARGS])[1]

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("sweep", "extractor", 5),
            ("jacobian", "modulus", 5),
            ("jacobian", "cache_dir", 5),
            ("jacobian", "out", 5),
            ("jacobian", "p", True),
            ("sweep", "p", 7),
        ],
    )
    def test_wrong_typed_value_is_config_error(self, capsys, tmp_path, command, key, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(self.FULL[command] | {key: value}))
        code, out, err = run(capsys, [command, "--config", str(path)])
        assert code == 2 and out == ""
        assert f"error: option {key!r} must be" in err


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

    @pytest.mark.parametrize("argv", [
        ["jacobian", *F7_ARGS],
        ["extract-sd", *F7_ARGS, "--extractor", "sk", "--k", "1"],
        ["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1", "--extractor",
         "sum", "--k", "1", "--mode", "montecarlo", "--samples", "500", "--seed", "3"],
        ["sweep", "--p", "7,13", "--c", "0,2", "--f", "1,c,0,0,0,1",
         "--extractor", "sum,pk", "--k", "1", "--budget", "180"],
        ["charsum", "--mode", "interval", "--p", "13"],
        ["charsum", "--mode", "orthogonality", "--p", "3", "--n", "2"],
        ["charsum", "--mode", "mordell", "--p", "5"],
        ["charsum", "--mode", "winterhof", "--p", "3", "--n", "2"],
        ["charsum", "--mode", "mordell", "--p", "19"],
    ], ids=["jacobian", "extract-exact", "extract-mc", "sweep", "interval",
            "orthogonality", "mordell", "winterhof", "mordell-p19"])
    def test_render_json_matches_indent_2(self, capsys, monkeypatch, argv):
        seen = []
        emit = cli.emit_report

        def record(cfg, command, columns, rows):
            seen.append((command, columns, rows))
            emit(cfg, command, columns, rows)

        monkeypatch.setattr(cli, "emit_report", record)
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        ((command, columns, rows),) = seen
        assert rows
        assert out == render_json(command, columns, rows) == json_reference(command, columns, rows)

    def test_render_json_synthetic_values(self):
        columns = ["s", "nan", "pinf", "ninf", "none", "yes", "no", "i", "x", "missing"]
        row = {"s": 'q"uo\\te \u00e9\u4e2d\n\t', "nan": math.nan, "pinf": math.inf,
               "ninf": -math.inf, "none": None, "yes": True, "no": False,
               "i": -12, "x": 0.1}
        text = render_json("charsum", columns, [row, dict(row, s="")])
        assert text == json_reference("charsum", columns, [row, dict(row, s="")])
        assert "NaN" in text and "-Infinity" in text and "\\u00e9" in text
        assert render_json("sweep", columns, []) == json_reference("sweep", columns, [])

    # render_json and render_csv memoise float texts per report; each case
    # is one column "x" over several rows, plus a string column "s"
    MEMO_CASES = {
        "signed-zeros": [0.0, -0.0, 0.0, -0.0, 1.5, -0.0],
        "nan-objects": [math.nan, math.nan, float("nan"), float("nan"),
                        math.inf, -math.inf, math.inf],
        "one-int-float-bool": [1, 1.0, True, 1.0, 1, True, 0, 0.0, False],
        "twelve-digits": [0.1 + 0.2, 0.3, 1e-7, 1e16, 123456789012345.0,
                          0.1 + 0.2, 1e-7, 2.0 / 3.0, -2.0 / 3.0],
    }

    @pytest.mark.parametrize("case", list(MEMO_CASES))
    def test_render_float_memo_edge_cases(self, case):
        columns = ["x", "s"]
        rows = [{"x": x, "s": f"r{i}"} for i, x in enumerate(self.MEMO_CASES[case])]
        assert render_json("charsum", columns, rows) == json_reference("charsum", columns, rows)
        assert render_csv(columns, rows) == csv_reference(columns, rows)

    def test_render_float_memo_texts(self):
        columns = ["x"]
        rows = [{"x": x} for x in (0.0, -0.0, 1, 1.0, True, 0.1 + 0.2, 1e-7,
                                   1e16, 123456789012345.0, math.nan, -math.inf)]
        cells = [r["x"] for r in json.loads(render_json("charsum", columns, rows))["rows"]]
        assert list(map(repr, cells)) == [
            "0.0", "-0.0", "1", "1.0", "True", "0.3", "1e-07", "1e+16",
            "123456789012000.0", "nan", "-inf",
        ]
        assert render_csv(columns, rows).split("\n")[1:-1] == [
            "0", "-0", "1", "1", "true", "0.3", "1e-07", "1e+16",
            "1.23456789012e+14", "nan", "-inf",
        ]

    def test_render_seeded_random_rows(self):
        rng = random.Random(20171)
        pool = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 0.1 + 0.2, 1e-7,
                None, True, False, 0, 1, -7, 2**70, "", "a,b", 'q"\n', "\u00e9"]
        columns = ["a", "b", "c", "d", "e"]
        rows = []
        for _ in range(200):
            row = {}
            for col in columns:
                pick = rng.random()
                if pick < 0.1:
                    continue  # a missing column renders as None
                if pick < 0.5:
                    row[col] = rng.choice(pool)
                elif pick < 0.8:
                    row[col] = rng.choice([1.0, 2.5, math.sqrt(2)]) * rng.choice([1, -1, 1e-9, 1e15])
                else:
                    row[col] = rng.uniform(-1e6, 1e6)
            rows.append(row)
        assert render_json("sweep", columns, rows) == json_reference("sweep", columns, rows)
        assert render_csv(columns, rows) == csv_reference(columns, rows)

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_no_subcommand(self, capsys):
        assert run(capsys, [])[0] == 2


ERROR_LINES = [
    (["jacobian", "--p", "9", "--f", "1,0,0,0,0,1"], "p=9 is not prime"),
    (["jacobian", "--p", "2", "--f", "1,0,0,0,0,1"], "characteristic 2 is not supported"),
    (["jacobian", "--p", "7", "--f", "0,0,0,0,0,1"], "f = x^5 has a repeated root"),
    (["jacobian", "--p", "7", "--f", "1,0,0,0,1"], "deg f = 4, need exactly 5"),
    (["jacobian", "--p", "7", "--f", "1,0,0,0,0,2"], "f must be monic"),
    (["jacobian", "--p", "3", "--n", "2", "--modulus", "2,0,1", "--f", "1,0,0,0,0,1"],
     "modulus (2, 0, 1) is reducible over F_3"),
    (["jacobian", "--p", "7", "--f", "1,x,0,0,0,1"], "bad polynomial text '1,x,0,0,0,1'"),
    (["jacobian", "--p", "3", "--n", "50", "--f", "1,0,0,0,0,1"],
     "p**n = 717897987691852588770249 exceeds the supported range 2**63"),
    (["charsum", "--mode", "winterhof", "--p", "3", "--n", "3", "--basis", "0,5"],
     "basis must be distinct indices in [0, 3), got [0, 5]"),
    (["charsum", "--mode", "interval", "--p", "7", "--n", "2"],
     "interval sums are defined over prime fields (n = 1)"),
    (["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "2"],
     "k must be in [1, 1] for sum over F_7, got 2"),
    (["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1", "--extractor", "sk", "--k", "1"],
     "sk is defined over prime fields only, field has degree 2"),
    # interval mode builds its field like every other command
    (["charsum", "--mode", "interval", "--p", "9"], "p=9 is not prime"),
    (["charsum", "--mode", "interval", "--p", "2"], "characteristic 2 is not supported"),
    (["charsum", "--mode", "interval", "--p", "7", "--modulus", "1,0,1"],
     "modulus degree 2 does not match n=1"),
    (["extract-sd", *F7_ARGS, "--extractor", "sum", "--k", "1", "--mode", "montecarlo"],
     "montecarlo mode requires --samples and --seed"),
    (["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1", "--extractor", "pk", "--k", "1",
      "--mode", "montecarlo", "--samples", "10", "--seed", "1"],
     "pk is defined over prime fields only, field has degree 2"),
    # outcome_count is the one check on (extractor, k): 2^3 > 7, and k > n
    (["sweep", *F7_ARGS, "--extractor", "pk", "--k", "3"],
     "k must be in [1, 2] for pk over F_7, got 3"),
    (["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1", "--extractor", "sum", "--k", "3"],
     "k must be in [1, 2] for sum over F_9, got 3"),
    # a bad basis exits 2 before the budget prices it
    (["charsum", "--mode", "winterhof", "--p", "3", "--n", "3", "--basis", "0,0", "--budget", "1"],
     "basis must be distinct indices in [0, 3), got [0, 0]"),
    (["charsum", "--mode", "winterhof", "--p", "3", "--n", "3", "--basis", "5", "--budget", "1"],
     "basis must be distinct indices in [0, 3), got [5]"),
    # a swept c is an element encoding, as it would be written in --f
    (["sweep", "--p", "7", "--f", "1,c,0,0,0,1", "--c", "9", "--extractor", "sum"],
     "9 is not an element encoding of F_7"),
    (["sweep", "--p", "7", "--f", "1,c,0,0,0,1", "--c", "-5", "--extractor", "sum"],
     "-5 is not an element encoding of F_7"),
]

# a message that charsum repeats is told apart by its command and mode
ERROR_IDS: list[str] = []
for argv, message in ERROR_LINES:
    ERROR_IDS.append(f"{argv[0]} {argv[2]}: {message}" if message in ERROR_IDS else message)


@pytest.mark.parametrize("argv,message", ERROR_LINES, ids=ERROR_IDS)
def test_library_check_exits_2_with_its_message(capsys, argv, message):
    """Each library check reaches stderr as its message alone, exit 2."""
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# each command with one required option left out
MISSING_OPTIONS = [
    (["jacobian", "--f", "1,0,0,0,0,1"], "p"),
    (["jacobian", "--p", "7"], "f"),
    (["extract-sd", *F7_ARGS, "--k", "1"], "extractor"),
    (["extract-sd", *F7_ARGS, "--extractor", "sum"], "k"),
    (["charsum", "--p", "7"], "mode"),
    (["charsum", "--mode", "mordell"], "p"),
    (["sweep", "--f", "1,0,0,0,0,1", "--extractor", "sum"], "p"),
    (["sweep", "--p", "7", "--extractor", "sum"], "f"),
    (["sweep", *F7_ARGS], "extractor"),
]


@pytest.mark.parametrize("argv,option", MISSING_OPTIONS,
                         ids=[f"{argv[0]}-{option}" for argv, option in MISSING_OPTIONS])
def test_missing_option_exits_2_with_its_message(capsys, argv, option):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: missing required option --{option}\n")


# |J| and the SD of one-row reports, as text the row must contain; a
# trailing newline anchors the text at the row's end
PINNED_ROWS = {
    # p = 937 is the largest prime the default budget admits
    "p937-montecarlo": (
        ["extract-sd", "--p", "937", "--f", "1,3,0,0,0,1", "--extractor", "sum", "--k", "1",
         "--mode", "montecarlo", "--samples", "1000", "--seed", "1"],
        ",855982,sum,1,937,montecarlo,1000,1,0.371048025614,"),
    "p937-exact": (
        ["extract-sd", "--p", "937", "--f", "1,3,0,0,0,1", "--extractor", "sum", "--k", "1"],
        ",855982,sum,1,937,exact,,,0.0135447060177,"),
    "p2003-exact": (
        ["extract-sd", "--p", "2003", "--f", "1,3,0,0,0,1", "--extractor", "sum", "--k", "1",
         "--budget", "10000000"],
        ",3971571,sum,1,2003,exact,,,0.00889392364537,"),
    # the product extractor over F_9: the draws land on u0, not -u1
    "F9-prod-montecarlo": (
        ["extract-sd", "--p", "3", "--n", "2", "--f", "1,0,0,0,0,1", "--extractor", "prod",
         "--k", "1", "--mode", "montecarlo", "--samples", "1000", "--seed", "1"],
        ",100,prod,1,3,montecarlo,1000,1,0.156333333333,"),
    # a prime-field bit extractor: the draws land on x1 (weight 1) and on u0 mod 2^k
    "p401-pk-montecarlo": (
        ["extract-sd", "--p", "401", "--f", "1,3,0,0,0,1", "--extractor", "pk", "--k", "4",
         "--mode", "montecarlo", "--samples", "100000", "--seed", "42"],
        ",162544,pk,4,16,montecarlo,100000,42,0.01065,0.0625564618,"),
    # all 128 group-law spot checks pass over F_7^2
    "F49-jacobian": (["jacobian", "--p", "7", "--n", "2", "--f", "1,0,0,0,0,1"], ",128,0,ok\n"),
}


@pytest.mark.parametrize("case", list(PINNED_ROWS))
def test_pinned_report_row(capsys, case):
    argv, text = PINNED_ROWS[case]
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(rows_of(out)) == 1
    assert text in out


# argv, exit code and stderr, with each runtime_ms figure written as *
PROCESS_CASES = [
    ("jacobian --p 7 --f 1,0,0,0,0,1", 0,
     "jacobian: |J| = 50, enumeration = computed, runtime_ms = *\n"),
    ("extract-sd --p 7 --f 1,0,0,0,0,1 --extractor sum --k 0", 2,
     "error: k must be in [1, 1] for sum over F_7, got 0\n"),
    ("jacobian --p 7 --f 1,0,0,0,0,1 --budget 100", 3,
     "error: Jacobian may hold up to 177 classes, budget is 100\n"),
    # each estimate is a closed form of the options, judged before the p
    # lengths or the 2^39 subsets are built, and the search over c stops
    # after 9 values, not q
    ("charsum --mode interval --p 1000000007", 3,
     "error: charsum mode interval needs about 1000000014000000049 character evaluations, "
     "budget is 1000000\n"),
    ("charsum --mode winterhof --p 3 --n 39", 3,
     "error: charsum mode winterhof needs about "
     "1224809639974238708818962962512535510581248 character evaluations, budget is 1000000\n"),
    ("sweep --p 1000003 --f 0,0,c,0,0,1 --c 1 --extractor sum", 2,
     "error: no squarefree instance of template '0,0,c,0,0,1' over F_1000003\n"),
]


def test_main_builds_one_parser_and_runs_commands_patched_later(capsys, monkeypatch):
    """main parses with one parser per process, and finds the command by
    its name when it runs, so a cmd_* replaced after the parser was built
    is the one that runs."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert run(capsys, ["charsum", "--mode", "interval", "--p", "3"])[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_charsum", lambda args: seen.append(args.p) or 7)
        assert run(capsys, ["charsum", "--mode", "interval", "--p", "5"])[0] == 7
        assert seen == [5] and builds == [1]
    finally:
        cli._parser.cache_clear()


def test_import_leaves_dataclasses_unloaded():
    """dataclasses imports inspect, ast, dis and tokenize, a cost every
    process would pay at start-up for two small report records."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = "import sys, xjac.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=30, check=True).stdout
    assert out == "[]\n"


def test_import_loads_only_the_standard_library():
    """xjac promises pure standard library.  -S keeps site hooks (a
    site-installed package's .pth file) out of the count."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = ("import sys, xjac.cli; print(sorted({m.partition('.')[0] for m in sys.modules}"
            " - set(sys.stdlib_module_names) - {'xjac', '__main__'}))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=30, check=True).stdout
    assert out == "[]\n"


def test_cli_runs_as_a_process():
    """`python -m xjac.cli` as its own process, all cases at once.  Each
    run has a 30 s timeout, so a refusal that stops exiting at once fails
    the test instead of hanging it."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    procs = [subprocess.Popen([sys.executable, "-m", "xjac.cli", *argv.split()], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv, _, _ in PROCESS_CASES]
    try:
        for (argv, code, err), proc in zip(PROCESS_CASES, procs):
            out, stderr = proc.communicate(timeout=30)
            stderr = re.sub(r"runtime_ms = [0-9.]+", "runtime_ms = *", stderr)
            assert (proc.returncode, stderr) == (code, err), argv
            assert (out == "") == (code != 0), argv
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
