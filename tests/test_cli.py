import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reebmin
from reebmin import bundled_spec

SPECS = {name: str(bundled_spec(name)) for name in
         ("c_n.json", "a1.json", "spp.json", "dk_4dim.json", "dk_downgrade.json")}


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


class TestOracleCommand:
    def test_smooth_surface_estimates(self):
        proc = run_cli("oracle", SPECS["c_n.json"], "--json-only")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        estimates = [float(x) for x in report["results"]["estimates"]]
        assert abs(estimates[-1] - 1.0) < 0.05
        assert abs(float(report["results"]["extrapolated"]) - 1.0) < 1e-3

    @pytest.mark.parametrize("m_list", [[0, 10, 20], [-5, 10, 20], [None, 10, 20]])
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
    ])
    def test_malformed_integer_field_exit_2(self, tmp_path, command, field, value):
        if command == "oracle":
            doc = json.loads(Path(SPECS["c_n.json"]).read_text())
        else:
            doc = {"schema": "reebmin/1", "kind": "approx", "target": ["1.414"], "signs": [1], "mode": "signed"}
        doc[field] = value
        spec = tmp_path / "bad_integer.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(command, str(spec))
        assert proc.returncode == 2, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "SpecError"
        assert "bad integer" in err["error"]["message"]

    def test_deterministic_output(self):
        a = run_cli("minimize", SPECS["a1.json"], "--json-only")
        b = run_cli("minimize", SPECS["a1.json"], "--json-only")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0
