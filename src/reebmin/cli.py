"""Command-line interface: parse singularity specs, dispatch, report.

Specs are JSON documents (schema "reebmin/1") with exact rationals written
as "p/q" strings and reals as decimal strings.  Results go to stdout as a
small table and, with --out, to a JSON report whose numbers are formatted
deterministically (rationals exact, floats at 12 significant digits).
"""

import argparse
import json
import sys
from fractions import Fraction
from math import isfinite

from . import _exact as ex
from ._newton import MAX_ITER
from .approx import (
    DEFAULT_QMAX,
    Enclosure,
    cone_rational_approx,
    dirichlet_signed,
    verify_cone,
    verify_signed,
)
from .cxonevol import PolyhedralDivisor, minimize_c1, nvol_c1, vol_xi_c1
from .downgrade import (
    BinomialHypersurface,
    DowngradeData,
    WeightMatrix,
    binomial_to_toric,
    complete_sequence,
    downgrade_coefficient,
    downgrade_sigma,
)
from .errors import ReebminError
from .futaki import semistable_scan
from .oracle import DEFAULT_BUDGET, CountSeries, count_cxone, count_toric, vol_estimate
from .toricvol import (
    ReebVector,
    ToricData,
    certify_barycenter,
    grad_vol,
    log_discrepancy,
    minimize,
    nvol,
    vol_xi,
)

SCHEMA = "reebmin/1"
COMMANDS = ("minimize", "eval", "futaki", "downgrade", "binom2toric", "oracle", "approx")


class SpecError(Exception):
    """Malformed problem specification (exit code 2)."""


def fmt(x):
    """Deterministic rendering: exact rationals verbatim, floats 12 digits."""
    if isinstance(x, (Fraction, int)):
        return str(x)
    return format(float(x), ".12g")


def fmt_vec(v):
    return [fmt(x) for x in v]


def _rat(x):
    if isinstance(x, bool):  # a bool is not a number
        raise SpecError(f"bad rational {x!r}")
    try:
        return ex.frac(x) if not isinstance(x, float) else Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise SpecError(f"bad rational {x!r}: {e}") from None


def _int(x):
    try:
        v = _rat(x)
        if v.denominator == 1:
            return int(v)
    except SpecError:
        pass
    raise SpecError(f"bad integer {x!r}")


def _real(x):
    """x as a finite float; a value whose float is infinite or NaN is a SpecError."""
    try:
        v = float(Fraction(x)) if isinstance(x, str) and "/" in x else float(x)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise SpecError(f"bad real {x!r}: {e}") from None
    if not isfinite(v):
        raise SpecError(f"bad real {x!r}: its float {v} is not finite")
    return v


def _field(doc, name, depth=1):
    """doc[name], nested `depth` lists deep (any value at depth 0); a
    SpecError names a missing or misshapen field."""
    if not isinstance(doc, dict) or name not in doc:
        raise SpecError(f'spec needs "{name}"')
    value = doc[name]
    if not _nested(value, depth):
        raise SpecError(f'"{name}" must be {("a value", "a list", "a list of lists")[depth]}, got {value!r}')
    return value


def _nested(value, depth):
    return depth == 0 or isinstance(value, list) and all(_nested(x, depth - 1) for x in value)


def _int_matrix(doc, name):
    return [[_int(x) for x in row] for row in _field(doc, name, 2)]


def _number(name, x):
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):  # a bool is not a number
        raise SpecError(f'"{name}" takes numbers and strings, got {x!r}')
    return x


def _target(e):
    """A number or a string, or {"value": number or decimal, "radius": rational}."""
    if not isinstance(e, dict):
        return _number("target", e)
    radius = None if e.get("radius") is None else _rat(_number("radius", e["radius"]))
    return Enclosure.from_decimal(_number("value", _field(e, "value", 0)), radius)


def _load_spec(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON in {path}: {e}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"spec {path} is not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SpecError(f'spec must declare "schema": "{SCHEMA}"')
    if "kind" not in doc:
        raise SpecError('spec needs a "kind"')
    return doc


def _toric_from_spec(doc):
    u0 = [_rat(x) for x in _field(doc, "u0")]
    if "sigma_dual_rays" in doc:
        return ToricData.from_dual_cone([[_rat(x) for x in r] for r in _field(doc, "sigma_dual_rays", 2)], u0)
    if "sigma_rays" in doc:
        return ToricData.from_cone([[_rat(x) for x in r] for r in _field(doc, "sigma_rays", 2)], u0)
    raise SpecError("toric spec needs sigma_dual_rays or sigma_rays")


def _divisor_from_spec(doc):
    tail = [[_rat(x) for x in r] for r in _field(doc, "tail_rays", 2)]
    pts = []
    for entry in _field(doc, "points"):
        vertices = [[_rat(x) for x in v] for v in _field(entry, "vertices", 2)]
        pts.append((entry.get("label", str(len(pts))), vertices))
    return PolyhedralDivisor.from_vertex_lists(tail, pts)


def _data_from_spec(doc):
    """Returns (kind, data, u0) for volume-bearing spec kinds."""
    kind = doc["kind"]
    if kind == "toric":
        t = _toric_from_spec(doc)
        return "toric", t, t.u0
    if kind == "binomial":
        t = binomial_to_toric(BinomialHypersurface(*([_int(x) for x in _field(doc, k)] for k in "ab")))
        return "toric", t, t.u0
    if kind == "complexity_one":
        d = _divisor_from_spec(doc)
        return "complexity_one", d, tuple(_rat(x) for x in _field(doc, "u0"))
    raise SpecError(f"command does not accept kind {kind!r}")


def _xi_from(doc, name="xi"):
    """A rational xi where every entry is an int, a "p/q" string or an
    integer string; a float or a decimal string makes it real."""
    vals = [_number(name, x) for x in _field(doc, name)]
    if all(isinstance(x, int) or isinstance(x, str) and ("/" in x or x.strip().lstrip("+-").isdecimal())
           for x in vals):
        try:
            return ReebVector.rational([_rat(x) for x in vals])
        except SpecError:
            pass
    return ReebVector.real([_real(x) for x in vals])


def _poly_json(poly):
    return {
        "vertices": [fmt_vec(v) for v in poly.compact_vertices],
        "tail_rays": [list(r) for r in poly.tail.rays],
    }


def run(command, doc, options):
    """Dispatch one command on a parsed spec; returns the report dict."""
    if command == "minimize":
        kind, data, u0 = _data_from_spec(doc)
        F = WeightMatrix(_int_matrix(doc, "F")) if kind == "complexity_one" and "F" in doc else None
        if F is not None and F.r != data.r:
            raise SpecError(f"F has {F.r} columns but the divisor lives in dimension {data.r}")
        if kind == "toric":
            res = minimize(data, tolerance=options.tol, max_iter=options.max_iter)
        else:
            res = minimize_c1(data, u0, tolerance=options.tol, max_iter=options.max_iter)
        results = {
            "xi_star": fmt_vec(res.xi_star.xi),
            "nvol_star": fmt(res.nvol_star),
            "grad_norm": fmt(res.grad_norm),
            "barycenter_residual": fmt(res.barycenter_residual),
            "iterations": res.iterations,
            "converged": res.converged,
        }
        if not res.converged:  # a converged report keeps its bytes
            results["stop_reason"] = res.stop_reason
        results["provenance"] = "closed_form_newton"
        if F is not None:
            results["ambient_weights"] = fmt_vec(
                [sum(a * b for a, b in zip(row, res.xi_star.xi)) for row in F.rows]
            )
        return results
    if command == "eval":
        kind, data, u0 = _data_from_spec(doc)
        xi = _xi_from(doc)
        if kind == "toric":
            return {
                "log_discrepancy": fmt(log_discrepancy(data, xi)),
                "vol": fmt(vol_xi(data, xi)),
                "nvol": fmt(nvol(data, xi)),
                "grad_vol": fmt_vec(grad_vol(data, xi)),
                "barycenter_residual": fmt(certify_barycenter(data, xi)),
                "provenance": "closed_form",
            }
        a = sum(x * y for x, y in zip(u0, xi.xi))
        return {
            "log_discrepancy": fmt(a),
            "vol": fmt(vol_xi_c1(data, xi)),
            "nvol": fmt(nvol_c1(data, u0, xi)),
            "provenance": "closed_form",
        }
    if command == "futaki":
        kind, data, u0 = _data_from_spec(doc)
        xi0 = _xi_from(doc, "xi0")
        etas = [[_real(_number("etas", x)) for x in e] for e in (_field(doc, "etas", 2) if "etas" in doc else [])]
        report = semistable_scan(data, xi0, etas, tolerance=options.tol, u0=u0)
        return {
            "entries": [
                {"eta": fmt_vec(eta), "fut": fmt(f), "normalized_eta": fmt_vec(nd)}
                for eta, f, nd in report.entries
            ],
            "min_fut": fmt(report.min_fut),
            "all_nonnegative": report.all_nonnegative,
            "tolerance": fmt(report.tolerance),
            "note": report.note,
            "provenance": "closed_form",
        }
    if command == "downgrade":
        if doc["kind"] != "downgrade":
            raise SpecError("downgrade command needs a downgrade spec")
        F = WeightMatrix(_int_matrix(doc, "F"))
        if "P" in doc and "s" in doc:
            data = DowngradeData(F, _int_matrix(doc, "P"), _int_matrix(doc, "s"))
        else:
            data = complete_sequence(F)
        sigma, sigma_dual = downgrade_sigma(data)
        fibers = _field(doc, "fiber_points", 2) if "fiber_points" in doc else []
        labels = _field(doc, "labels") if "labels" in doc else [str(p) for p in fibers]
        coeffs = {label: _poly_json(downgrade_coefficient(data, [_rat(x) for x in p]))
                  for label, p in zip(labels, fibers)}
        return {
            "P": [list(r) for r in data.P],
            "s": [list(r) for r in data.s],
            "sigma_rays": [list(r) for r in sigma.rays],
            "sigma_dual_rays": [list(r) for r in sigma_dual.rays],
            "coefficients": coeffs,
            "provenance": "exact",
        }
    if command == "binom2toric":
        if doc["kind"] != "binomial":
            raise SpecError("binom2toric needs a binomial spec")
        _, t, _ = _data_from_spec(doc)
        return {
            "n": t.n,
            "sigma_rays": [list(r) for r in t.sigma.rays],
            "sigma_dual_rays": [list(r) for r in t.sigma_dual.rays],
            "u0": fmt_vec(t.u0),
            "provenance": "exact",
        }
    if command == "oracle":
        kind, data, u0 = _data_from_spec(doc)
        xi = _xi_from(doc)
        ms = _field(doc, "m_list")
        if not ms or not all(isinstance(m, (int, float)) and not isinstance(m, bool) and 0 < m <= sys.float_info.max
                             for m in ms):  # a JSON integer past float range is a Python int
            raise SpecError(f"oracle truncations must be positive numbers within float range, got {ms}")
        if len(ms) >= 3 and len(set(sorted(map(float, ms))[-3:])) < 3:  # as vol_estimate reads them
            raise SpecError(f"oracle m_list needs its three largest truncations distinct to extrapolate, got {ms}")
        budget = _int(doc.get("budget", DEFAULT_BUDGET))
        counter = count_toric if kind == "toric" else count_cxone
        counts = [counter(data, xi, m, budget) for m in ms]
        try:
            series = CountSeries.from_counts(data.n, list(zip(ms, counts)))
        except ValueError as e:  # m^n underflows, or an estimate overflows
            raise SpecError(f"oracle m_list: {e}") from None
        out = {
            "m_list": [fmt(m) for m in ms],
            "counts": counts,
            "estimates": fmt_vec(series.estimates),
            "provenance": "lattice_count",
        }
        if len(ms) >= 3:
            est, diag = vol_estimate(series)
            out["extrapolated"] = fmt(est)
            out["monotone_counts"] = diag["monotone_counts"]
        return out
    if command == "approx":
        if doc["kind"] != "approx":
            raise SpecError("approx command needs an approx spec")
        targets = [_target(e) for e in _field(doc, "target")]
        epsilon = _rat(doc.get("epsilon", "1/2"))
        q_max = _int(doc.get("q_max", DEFAULT_QMAX))
        if doc.get("mode", "signed") == "signed":
            signs = [_int(s) for s in _field(doc, "signs")]
            sa = dirichlet_signed(targets, signs, epsilon, q_max)
            return {
                "p": list(sa.p),
                "q": sa.q,
                "signs": list(sa.signs),
                "epsilon": fmt(sa.epsilon),
                "verified": verify_signed(sa),
                "provenance": "denominator_scan",
            }
        ca = cone_rational_approx(targets, epsilon, q_max)
        return {
            "vectors": [{"v": fmt_vec(v), "q": q} for v, q in ca.vectors],
            "hull_coefficients": fmt_vec(ca.hull_coefficients),
            "epsilon": fmt(ca.epsilon),
            "verified": verify_cone(ca),
            "provenance": "denominator_scan",
        }
    raise SpecError(f"unknown command {command!r}")


def _table(results, indent=""):
    lines = []
    for key, value in results.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_table(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.extend(_table(item, indent + "  "))
                lines.append(f"{indent}  -")
        else:
            lines.append(f"{indent}{key:24s} {value}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(prog="reebmin", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", help="path to a reebmin/1 JSON spec")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--max-iter", type=int, default=MAX_ITER, dest="max_iter")
    parser.add_argument("--json-only", action="store_true", dest="json_only")
    args = parser.parse_args(argv)

    try:
        doc = _load_spec(args.spec)
        results = run(args.command, doc, args)
    except SpecError as e:
        print(json.dumps({"error": {"type": "SpecError", "message": str(e)}}), file=sys.stderr)
        return 2
    except (ReebminError, ValueError) as e:
        payload = {"error": {"type": type(e).__name__, "message": str(e)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1

    report = {
        "schema": SCHEMA,
        "command": args.command,
        "spec": doc,
        "results": results,
    }
    if not args.json_only:
        print(f"reebmin {args.command} on {doc.get('name', args.spec)}")
        print("\n".join(_table(results)))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json_only:
        print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
