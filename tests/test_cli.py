import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reebmin
from reebmin import DowngradeData, WeightMatrix, bundled_spec, cli, downgrade_coefficient

SPECS = {name: str(bundled_spec(name)) for name in
         ("c_n.json", "a1.json", "spp.json", "dk_4dim.json", "dk_downgrade.json")}
DK_F = [[1, 0, 0], [-1, 2, 0], [0, 1, 0], [0, 0, 1], [0, 2, -2]]  # F of both dk specs


# The CLI subprocess imports the same reebmin as the tests, installed or not.
SRC = str(Path(reebmin.__file__).resolve().parents[1])
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "reebmin.cli", *args],
        capture_output=True,
        text=True,
        env=ENV,
    )


class TestMinimizeCommand:
    def test_spp_minimize_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("minimize", SPECS["spp.json"], "--out", str(out), "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        xi = [float(x) for x in report["results"]["xi_star"]]
        expected = [(3 + math.sqrt(3)) / 2, (3 + math.sqrt(3)) / 2, math.sqrt(3)]
        assert max(abs(a - b) for a, b in zip(xi, expected)) < 1e-8
        assert report["results"]["converged"] is True

    def test_dk_minimize_with_ambient_weights(self):
        proc = run_cli("minimize", SPECS["dk_4dim.json"], "--json-only", "--tol", "1e-7")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        weights = [float(x) for x in report["results"]["ambient_weights"]]
        scale = weights[0]
        alpha = (-3 + math.sqrt(33)) / 4
        beta = (7 - math.sqrt(33)) / 2
        expected = [1, 1, 1, alpha, beta]
        assert max(abs(w / scale - e) for w, e in zip(weights, expected)) < 1e-6


class TestDowngradeCommand:
    def test_reproduces_exact_data(self):
        proc = run_cli("downgrade", SPECS["dk_downgrade.json"], "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        res = report["results"]
        assert sorted(map(tuple, res["sigma_rays"])) == sorted(
            [(0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1)]
        )
        assert sorted(map(tuple, res["sigma_dual_rays"])) == sorted(
            [(1, 0, 0), (0, 0, 1), (-1, 2, 0), (0, 1, -1)]
        )
        coeffs = res["coefficients"]
        assert sorted(map(tuple, coeffs["0"]["vertices"])) == [("0", "0", "0"), ("0", "0", "1/2")]
        assert sorted(map(tuple, coeffs["1"]["vertices"])) == [("0", "1/2", "0")]
        assert sorted(map(tuple, coeffs["inf"]["vertices"])) == [("0", "0", "0"), ("1", "0", "0")]

    def test_rational_fiber_points_are_exact(self, tmp_path):
        # fiber points are exact rationals, "p/q" strings or floats; none is truncated
        doc = json.loads(Path(SPECS["dk_downgrade.json"]).read_text())
        doc.update(fiber_points=[["1/2", 0], [0.5, 0], [1, 0]], labels=["half", "float_half", "one"])
        spec = tmp_path / "half.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli("downgrade", str(spec), "--json-only")
        assert proc.returncode == 0, proc.stderr
        coeffs = json.loads(proc.stdout)["results"]["coefficients"]
        data = DowngradeData(WeightMatrix(doc["F"]), doc["P"], doc["s"])
        half = downgrade_coefficient(data, [Fraction(1, 2), 0])
        assert coeffs["half"] == coeffs["float_half"] != coeffs["one"]
        assert coeffs["half"]["vertices"] == [[str(x) for x in v] for v in half.compact_vertices]


class TestOracleCommand:
    def test_smooth_surface_estimates(self):
        proc = run_cli("oracle", SPECS["c_n.json"], "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        estimates = [float(x) for x in report["results"]["estimates"]]
        assert abs(estimates[-1] - 1.0) < 0.05
        assert abs(float(report["results"]["extrapolated"]) - 1.0) < 1e-3

    @pytest.mark.parametrize("m_list", [[0, 10, 20], [-5, 10, 20], [None, 10, 20], [True, 2, 3], [1e-300, 1, 2],
                                        [50, 100, 10**400]])
    def test_non_positive_truncation_exit_2(self, tmp_path, m_list):
        doc = json.loads(Path(SPECS["c_n.json"]).read_text())
        doc["m_list"] = m_list
        spec = tmp_path / "bad_m.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli("oracle", str(spec))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecError"
        assert "positive" in err["error"]["message"]

    def test_repeated_truncations_exit_2_before_counting(self, tmp_path, monkeypatch):
        # the extrapolation needs the three largest truncations distinct; the
        # parent counted all three and then exited 1 with a ValueError
        doc = json.loads(Path(SPECS["spp.json"]).read_text())
        doc["m_list"] = [100, 100, 200]
        spec = tmp_path / "repeated_m.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli("oracle", str(spec))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "SpecError" and "m_list" in err["message"]

        def no_count(*args):
            raise AssertionError("counted before checking m_list")

        monkeypatch.setattr(cli, "count_toric", no_count)
        for m_list in ([100, 100, 200], [50, 200, 100.0, 100]):
            with pytest.raises(cli.SpecError, match="m_list"):
                cli.run("oracle", {**doc, "m_list": m_list}, argparse.Namespace(threads=1))

    def test_truncations_in_any_order_report_monotone_counts(self):
        doc = json.loads(Path(SPECS["spp.json"]).read_text())
        doc["m_list"] = [200, 100, 50]
        out = cli.run("oracle", doc, argparse.Namespace(threads=1))
        assert out["counts"] == [524828, 67080, 8772]
        assert out["monotone_counts"] is True


class TestOtherCommands:
    def test_eval(self):
        proc = run_cli("eval", SPECS["a1.json"], "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["results"]["nvol"] == "2"

    def test_binom2toric(self, tmp_path):
        spec = tmp_path / "binom.json"
        spec.write_text(json.dumps({
            "schema": "reebmin/1", "kind": "binomial", "a": [1, 1, 0], "b": [0, 0, 2],
        }))
        proc = run_cli("binom2toric", str(spec), "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["results"]["n"] == 2

    def test_futaki(self, tmp_path):
        spec = tmp_path / "fut.json"
        spec.write_text(json.dumps({
            "schema": "reebmin/1", "kind": "toric",
            "sigma_dual_rays": [[1, 0], [0, 1]], "u0": [1, 1],
            "xi0": ["2", "1"], "etas": [[1, 0]],
        }))
        proc = run_cli("futaki", str(spec), "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["results"]["all_nonnegative"] is False
        assert float(report["results"]["min_fut"]) == -0.75

    def test_approx(self, tmp_path):
        spec = tmp_path / "approx.json"
        spec.write_text(json.dumps({
            "schema": "reebmin/1", "kind": "approx",
            "target": ["1.41421356237309504880"], "signs": [1],
            "epsilon": "1/2", "q_max": 1000, "mode": "signed",
        }))
        proc = run_cli("approx", str(spec), "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["results"]["q"] <= 10
        assert report["results"]["verified"] is True


    def test_approx_cone_mode_in_either_coordinate_order(self, tmp_path):
        xi = ["2.36602540378443864676372317075294", "2.36602540378443864676372317075294",
              "1.73205080756887729352744634150587"]
        for name, target in (("first", xi), ("last", xi[::-1])):
            spec = tmp_path / f"cone_{name}.json"
            spec.write_text(json.dumps({
                "schema": "reebmin/1", "kind": "approx", "target": target, "epsilon": "1/2", "mode": "cone",
            }))
            proc = run_cli("approx", str(spec), "--json-only")
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["results"]["verified"] is True

class TestStdoutTables:
    """The table printed without --json-only, pinned byte for byte."""

    def test_eval_complexity_one(self):
        proc = run_cli("eval", SPECS["dk_4dim.json"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "reebmin eval on 4-dimensional D-type hypersurface degeneration\n"
            "log_discrepancy          2.31385933837\n"
            "vol                      4.64356776939\n"
            "nvol                     133.106604585\n"
            "provenance               closed_form\n"
        )

    def test_nested_dicts(self):
        proc = run_cli("downgrade", SPECS["dk_downgrade.json"])
        assert proc.returncode == 0, proc.stderr
        tail = "    tail_rays                [[0, 1, 0], [0, 1, 1], [2, 1, 0], [2, 1, 1]]\n"
        assert proc.stdout == (
            "reebmin downgrade on rank-3 subtorus of C^5\n"
            "P                        [[-1, -1, 0, 2, 1], [-1, -1, 2, 0, 0]]\n"
            "s                        [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]\n"
            "sigma_rays               [[0, 1, 0], [0, 1, 1], [2, 1, 0], [2, 1, 1]]\n"
            "sigma_dual_rays          [[-1, 2, 0], [0, 0, 1], [0, 1, -1], [1, 0, 0]]\n"
            "coefficients:\n"
            "  0:\n"
            "    vertices                 [['0', '0', '0'], ['0', '0', '1/2']]\n" + tail +
            "  1:\n"
            "    vertices                 [['0', '1/2', '0']]\n" + tail +
            "  inf:\n"
            "    vertices                 [['0', '0', '0'], ['1', '0', '0']]\n" + tail +
            "provenance               exact\n"
        )

    def test_list_of_dicts(self, tmp_path):
        spec = tmp_path / "fut.json"
        spec.write_text(json.dumps({
            "schema": "reebmin/1", "kind": "toric", "name": "C^2",
            "sigma_dual_rays": [[1, 0], [0, 1]], "u0": [1, 1],
            "xi0": ["2", "1"], "etas": [[1, 0], [0, 1]],
        }))
        proc = run_cli("futaki", str(spec))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "reebmin futaki on C^2\n"
            "entries:\n"
            "  eta                      ['1', '0']\n"
            "  fut                      -0.75\n"
            "  normalized_eta           ['0.111111111111', '-0.111111111111']\n"
            "  -\n"
            "  eta                      ['0', '1']\n"
            "  fut                      1.5\n"
            "  normalized_eta           ['-0.222222222222', '0.222222222222']\n"
            "  -\n"
            "min_fut                  -0.75\n"
            "all_nonnegative          False\n"
            "tolerance                1e-09\n"
            "note                     covers the tested directions only;"
            " no statement about untested degenerations\n"
            "provenance               closed_form\n"
        )


class TestThreadsAndOutputs:
    def test_out_file_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("minimize", SPECS["spp.json"], "--out", str(out1), "--json-only")
        run_cli("minimize", SPECS["spp.json"], "--out", str(out2), "--json-only")
        assert out1.read_bytes() == out2.read_bytes()

    def test_futaki_complexity_one(self, tmp_path):
        import math as _math

        alpha = (-3 + _math.sqrt(33)) / 4
        doc = json.loads(Path(SPECS["dk_4dim.json"]).read_text())
        doc["xi0"] = [1.0, 1.0, alpha]
        doc["etas"] = [[1, 0, 0], [0, 0, 1]]
        spec = tmp_path / "dk_fut.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli("futaki", str(spec), "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["results"]["all_nonnegative"] is True
        assert all(abs(float(e["fut"])) < 1e-6 for e in report["results"]["entries"])


class TestCliContract:
    def test_parse_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        proc = run_cli("minimize", str(bad))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecError"

    def test_non_object_spec_exit_2(self, tmp_path):
        spec = tmp_path / "list.json"
        spec.write_text("[1, 2]")
        proc = run_cli("minimize", str(spec))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == "SpecError"

    def test_module_error_exit_1(self, tmp_path):
        spec = tmp_path / "bad_cone.json"
        spec.write_text(json.dumps({
            "schema": "reebmin/1", "kind": "toric",
            "sigma_dual_rays": [[1, 0], [-1, 0]], "u0": [1, 1],
        }))
        proc = run_cli("minimize", str(spec))
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert "error" in err

    @pytest.mark.parametrize("option, value", [("--max-iter", "-5"), ("--tol", "inf"), ("--tol", "nan"),
                                               ("--tol", "-1")])
    def test_bad_newton_option_exit_1(self, option, value):
        # these used to report "iterations": -5, converged at the start point
        # (--tol inf) or converged false after Newton reached the rounding floor
        proc = run_cli("minimize", SPECS["spp.json"], option, value)
        assert proc.returncode == 1 and not proc.stdout
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("max_iter" if option == "--max-iter" else "tolerance")

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_futaki_tolerance_exit_1(self, tmp_path, value):
        doc = json.loads(Path(SPECS["spp.json"]).read_text())
        doc.update(xi0=["2", "2", "1"], etas=[[1, 0, 0]])
        spec = tmp_path / "scan.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli("futaki", str(spec), "--tol", value)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"]["type"] == "ValueError"

    def test_stop_reason_only_when_not_converged(self):
        reports = [json.loads(run_cli("minimize", SPECS["spp.json"], "--json-only", *args).stdout)["results"]
                   for args in ((), ("--max-iter", "1"))]
        assert reports[0]["converged"] is True and "stop_reason" not in reports[0]
        assert reports[1]["converged"] is False and reports[1]["stop_reason"] == "max_iter"
        assert list(reports[1])[-2:] == ["stop_reason", "provenance"]

    def test_eval_xi_of_wrong_length_exit_1(self, tmp_path):
        spec = tmp_path / "long_xi.json"
        spec.write_text(json.dumps({
            "schema": "reebmin/1", "kind": "toric",
            "sigma_dual_rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u0": [1, 1, 1],
            "xi": ["1", "1", "1", "5"],
        }))
        proc = run_cli("eval", str(spec))
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ValueError"
        assert "4 entries" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["eval", "futaki"])
    def test_u0_not_positive_on_the_tail_exit_1(self, tmp_path, command):
        doc = json.loads(Path(SPECS["dk_4dim.json"]).read_text())
        doc.update(u0=[0, -3, 1], xi=["1", "1", "1/3"], xi0=["1", "1", "1/3"], etas=[[1, 0, 0]])
        spec = tmp_path / "negative_u0.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(command, str(spec))
        assert proc.returncode == 1, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ValueError"
        assert err["error"]["message"] == "u0 must pair positively with the tail cone"

    @pytest.mark.parametrize("name, xi", [("c_n.json", ["1"]), ("dk_4dim.json", ["1", "1", "1/3", "1"])])
    def test_oracle_xi_of_wrong_length_exit_1(self, tmp_path, name, xi):
        doc = json.loads(Path(SPECS[name]).read_text())
        doc["xi"] = xi
        spec = tmp_path / "bad_xi.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli("oracle", str(spec))
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ValueError"
        assert f"{len(xi)} entries" in err["error"]["message"]

    @pytest.mark.parametrize("command, field, value", [
        ("minimize", "u0", ["1/0", 1]),
        ("futaki", "etas", [["1/0", 1]]),
    ])
    def test_zero_denominator_exit_2(self, tmp_path, command, field, value):
        doc = {
            "schema": "reebmin/1", "kind": "toric",
            "sigma_dual_rays": [[1, 0], [0, 1]], "u0": [1, 1], "xi0": ["2", "1"],
        }
        doc[field] = value
        spec = tmp_path / "zero_denominator.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(command, str(spec))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecError"
        assert "1/0" in err["error"]["message"]

    def test_weight_matrix_of_wrong_width_exit_2(self, tmp_path):
        doc = json.loads(Path(SPECS["dk_4dim.json"]).read_text())
        doc["F"] = [row[:2] for row in doc["F"]]
        spec = tmp_path / "narrow_F.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli("minimize", str(spec))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecError"
        assert "2 columns" in err["error"]["message"]

    @pytest.mark.parametrize("command, field, value", [
        ("oracle", "budget", "lots"),
        ("approx", "q_max", "many"),
        ("approx", "signs", ["plus"]),
        # a non-integer is refused, not truncated
        ("downgrade", "F", [[1.5, 0, 0]] + DK_F[1:]),
        ("downgrade", "P", [[-1, -1, 0, 2, "1/2"], [-1, -1, 2, 0, 0]]),
        ("downgrade", "s", [[1, 0, 0, 0, 0.5], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]),
        ("downgrade", "fiber_points", [[1, 0], [0, "half"], [-1, -1]]),
        ("minimize", "F", [[1.5, 0, 0]] + DK_F[1:]),
        ("binom2toric", "a", [1.5, 1, 0, 0]),
        ("binom2toric", "b", [0, 0, 1, "1/2"]),
        ("approx", "signs", [True]),
    ])
    def test_malformed_integer_field_exit_2(self, tmp_path, command, field, value):
        if command == "oracle":
            doc = json.loads(Path(SPECS["c_n.json"]).read_text())
        elif command == "approx":
            doc = {"schema": "reebmin/1", "kind": "approx", "target": ["1.414"], "signs": [1], "mode": "signed"}
        elif command == "binom2toric":
            doc = {"schema": "reebmin/1", "kind": "binomial", "a": [1, 1, 0, 0], "b": [0, 0, 1, 1]}
        else:
            doc = json.loads(Path(SPECS["dk_downgrade.json" if command == "downgrade" else "dk_4dim.json"]).read_text())
        doc[field] = value
        spec = tmp_path / "bad_integer.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(command, str(spec))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecError"
        # fiber points are exact rationals
        assert ("bad rational" if field == "fiber_points" else "bad integer") in err["error"]["message"]

    @pytest.mark.parametrize("command, name, field, edit", [
        ("minimize", "spp.json", "u0", lambda doc: doc.pop("u0")),
        ("minimize", "spp.json", "u0", lambda doc: doc.update(u0=5)),
        ("downgrade", "dk_downgrade.json", "F", lambda doc: doc.pop("F")),
        ("minimize", "dk_4dim.json", "vertices", lambda doc: doc["points"][0].pop("vertices")),
        ("approx", None, "value", lambda doc: doc.update(target=[{"radius": "1e-3"}])),
        ("binom2toric", None, "b", lambda doc: doc.pop("b")),
        ("approx", None, "target", lambda doc: doc.update(target=[[1]])),
        ("approx", None, "target", lambda doc: doc.update(target=[None])),
        ("approx", None, "target", lambda doc: doc.update(target=[True])),  # a bool is not a number
        ("approx", None, "value", lambda doc: doc.update(target=[{"value": ["1.414"]}])),
        ("approx", None, "radius", lambda doc: doc.update(target=[{"value": "1.414", "radius": [1]}])),
        ("eval", "c_n.json", "xi", lambda doc: doc.update(xi=[True, 1])),
    ], ids=["no_u0", "int_u0", "no_F", "no_vertices", "no_value", "no_b",
            "list_target", "null_target", "bool_target", "list_value", "list_radius", "bool_xi"])
    def test_missing_or_misshapen_field_exit_2(self, tmp_path, command, name, field, edit):
        if name:
            doc = json.loads(Path(SPECS[name]).read_text())
        elif command == "approx":
            doc = {"schema": "reebmin/1", "kind": "approx", "target": ["1.414"], "signs": [1], "mode": "signed"}
        else:
            doc = {"schema": "reebmin/1", "kind": "binomial", "a": [1, 1, 0, 0], "b": [0, 0, 1, 1]}
        edit(doc)
        spec = tmp_path / "bad_field.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(command, str(spec))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecError"
        assert f'"{field}"' in err["error"]["message"]

    def test_deterministic_output(self):
        a = run_cli("minimize", SPECS["a1.json"], "--json-only")
        b = run_cli("minimize", SPECS["a1.json"], "--json-only")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_import_leaves_mpmath_unloaded():
    # only the integer-relation search of `approx` uses mpmath, and imports it there
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, reebmin, reebmin.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestIntegerStringXi:
    # an integer string in xi or xi0 is exact, as a JSON integer is, so it
    # mixes with "p/q" strings; a decimal string makes the vector real
    CONE = {"schema": "reebmin/1", "kind": "toric", "sigma_dual_rays": [[1, 0], [1, 2]], "u0": [1, 1]}

    def test_oracle_counts_at_the_rational(self, tmp_path):
        counts = []
        for k, xi in enumerate((["1", "1", "7/10"], [" 1", "+1 ", "7/10"], ["1/1", "1/1", "7/10"])):
            doc = json.loads(Path(SPECS["dk_4dim.json"]).read_text())
            doc.update(xi=xi, m_list=[50, 100, 200])
            spec = tmp_path / f"dk_{k}.json"
            spec.write_text(json.dumps(doc))
            proc = run_cli("oracle", str(spec), "--json-only")
            assert proc.returncode == 0, proc.stderr
            counts.append(json.loads(proc.stdout)["results"]["counts"])
        # at the double nearest 7/10 the counts are [1355386, 20750851, 324685829]
        assert counts == [[1352768, 20728472, 324501071]] * 3

    @pytest.mark.parametrize("xi, vol", [
        (["3", "7/10"], "5/33"), ([3, "7/10"], "5/33"), (["3/1", "7/10"], "5/33"),
        (["3.0", "7/10"], "0.151515151515"), (["3e0", "7/10"], "0.151515151515"),
    ])
    def test_eval(self, tmp_path, xi, vol):
        spec = tmp_path / "eval.json"
        spec.write_text(json.dumps({**self.CONE, "xi": xi}))
        proc = run_cli("eval", str(spec), "--json-only")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["vol"] == vol

    def test_futaki_xi0(self, monkeypatch):
        seen = []
        scan = cli.semistable_scan

        def spy(data, xi0, *args, **kwargs):
            seen.append(xi0)
            return scan(data, xi0, *args, **kwargs)

        monkeypatch.setattr(cli, "semistable_scan", spy)
        for xi0 in (["3", "7/10"], ["3.0", "7/10"]):
            cli.run("futaki", {**self.CONE, "xi0": xi0, "etas": [[1, 0]]}, argparse.Namespace(tol=1e-9))
        assert seen[0].exact and seen[0].xi == (3, Fraction(7, 10))
        assert not seen[1].exact and seen[1].xi == (3.0, 0.7)
