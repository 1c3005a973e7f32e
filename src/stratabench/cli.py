"""Command-line front end.

Every subcommand emits a single deterministic JSON report with a
"verdict" field and structured evidence; run metadata lives in a
separate "meta" field so golden comparisons can ignore it.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

from . import (BudgetExceeded, BudgetSettingError, bidouble, canring, fibration, gluing,
               implicitize, s2e)
from .poly import PolynomialError
from . import poly as polymod

T = TypeVar("T")


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})") from None


def _point(text: str, flag: str) -> Tuple[Fraction, ...]:
    point = tuple(_fraction(t) for t in text.split(":"))
    if len(point) != 3:
        raise UsageError(f"{flag} expects three coordinates p0:p1:p2, got {text!r}")
    return point


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError as exc:
        raise UsageError(f"not an integer list: {text!r}") from None


def _load(path: str, from_json: Callable[[dict], T]) -> T:
    """Read a JSON file and build an object from it with `from_json`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}") from None
    except RecursionError:
        raise UsageError(f"malformed JSON in {path}: nested too deeply") from None
    try:
        return from_json(doc)
    except (KeyError, TypeError, AttributeError, PolynomialError) as exc:
        raise UsageError(
            f"malformed document in {path}: {type(exc).__name__}: {exc}") from None


# -- subcommand handlers -------------------------------------------------------


def _demo_model() -> canring.CanonicalRingModel:
    R = canring.XY_RING
    x, y1, y2 = R.var("x"), R.var("y1"), R.var("y2")
    zero = R.zero()
    return canring.CanonicalRingModel(zero, zero, y1 ** 3 + x ** 6, y2 ** 3 + x ** 6)


def cmd_hilbert(args) -> Tuple[str, dict]:
    weights = _int_list(args.weights)
    relations = _int_list(args.relations) if args.relations else ()
    series = canring.ci_hilbert_series(weights, relations, args.upto)
    evidence: dict = {"weights": list(weights), "relations": list(relations),
                      "series": series}
    verdict = "pass"
    if args.rr:
        try:
            k2, chi, pg = (int(t) for t in args.rr.split(","))
        except ValueError:
            raise UsageError(
                f"--rr expects three integers K2,chi,pg, got {args.rr!r}") from None
        rr = [None] + [canring.rr_prediction(k2, chi, pg, m)
                       for m in range(1, args.upto + 1)]
        agree = all(series[m] == rr[m] for m in range(1, args.upto + 1))
        evidence["rr"] = rr[1:]
        evidence["rr_agrees"] = agree
        verdict = "pass" if agree else "fail"
    return verdict, evidence


def cmd_canring(args) -> Tuple[str, dict]:
    if args.model:
        model = _load(args.model, canring.CanonicalRingModel.from_json)
    else:
        model = _demo_model()
    report = canring.validate_canring(model)
    evidence = {
        "validation": report.to_json(),
        "automorphisms": canring.classify_relative_automorphisms(model),
    }
    verdict = "pass" if report.valid else "fail"
    if args.fiber:
        base = _point(args.fiber, "--fiber")
        try:
            evidence["fiber_count"] = canring.bicanonical_fiber_count(
                model, base, validation=report)
        except canring.NonGenericBase as exc:
            evidence["fiber_count"] = None
            evidence["fiber_error"] = str(exc)
            verdict = "fail"
    return verdict, evidence


def cmd_bidouble(args) -> Tuple[str, dict]:
    evidence: dict = {}
    verdict = "pass"
    if args.normalize:
        ms = _load(args.normalize, bidouble.DivisorMultiset.from_json)
        out = bidouble.normalize_building_data(ms)
        evidence["normalized"] = out.to_json()
        return verdict, evidence
    if args.data:
        bd = _load(args.data, bidouble.BuildingData.from_json)
    else:
        bd = bidouble.known_examples(args.example or "Z1")
        evidence["example"] = args.example or "Z1"
    report = bidouble.validate_building_data(bd)
    evidence["validation"] = report
    verdict = "pass" if report["valid"] else "fail"
    if args.classify:
        pts = [_point(chunk, "--classify") for chunk in args.classify.split(";")]
        evidence["classification"] = []
        for pt in pts:
            c = bidouble.classify_point(bd, pt)
            evidence["classification"].append({
                "point": [str(x) for x in pt],
                "tag": c.tag,
                "multiplicities": list(c.multiplicities),
                "diagnostic": c.diagnostic,
            })
    return verdict, evidence


def cmd_fibration(args) -> Tuple[str, dict]:
    solutions = fibration.solve_multiple_fibres(2, 3, 12)
    rows = [{"type": r.type_index,
             "admissible": fibration.bielliptic_admissible(r)[0]}
            for r in fibration.BIELLIPTIC_TABLE]
    hirzebruch = fibration.hirzebruch_branch_solve()
    checks = {
        "multiple_fibres": [[k, list(ms)] for k, ms in solutions],
        "multiple_fibres_ok": solutions == [(2, (2, 2, 2))],
        "bielliptic": rows,
        "bielliptic_ok": [r["type"] for r in rows if r["admissible"]] == [1, 3, 5, 7],
        "hirzebruch": hirzebruch,
        "hirzebruch_ok": hirzebruch["k"] == 10,
        "chi_examples": {
            "(2,[1])": fibration.chi_bookkeeping(2, [1]),
            "(2,[1,1])": fibration.chi_bookkeeping(2, [1, 1]),
            "(2,[5])": fibration.chi_bookkeeping(2, [5]),
        },
    }
    checks["chi_ok"] = (checks["chi_examples"]["(2,[1])"]["valid"]
                        and checks["chi_examples"]["(2,[1,1])"]["valid"]
                        and not checks["chi_examples"]["(2,[5])"]["valid"])
    ok = all(checks[k] for k in
             ("multiple_fibres_ok", "bielliptic_ok", "hirzebruch_ok", "chi_ok"))
    return ("pass" if ok else "fail"), checks


def cmd_glue(args) -> Tuple[str, dict]:
    evidence: dict = {}
    if args.min_nodes:
        evidence["minimum_nodes"] = gluing.minimum_nodes_check()
        verdict = "pass" if evidence["minimum_nodes"]["minimum"] == 3 else "fail"
        return verdict, evidence
    name = args.config or "four-lines"
    if name.endswith(".json"):
        config = _load(name, gluing.MarkedConfig.from_json)
        sym = []
    else:
        try:
            config, sym = gluing.builtin_config(name)
        except gluing.GluingError as exc:
            raise UsageError(str(exc)) from None
    orbits = gluing.enumerate_gluings(config, sym)
    evidence["config"] = config.to_json()
    evidence["orbit_count"] = len(orbits)
    evidence["orbits"] = [o.to_json() for o in orbits]
    return "pass", evidence


def cmd_implicitize(args) -> Tuple[str, dict]:
    if args.a is None or args.b is None:
        raise UsageError("implicitize needs --a and --b")
    try:
        inp = implicitize.ParametrizationInput(_fraction(args.a), _fraction(args.b))
    except implicitize.ImplicitizeError as exc:
        raise UsageError(str(exc)) from None
    quartic, verification = implicitize.implicitize(inp)
    ok = (verification["pullback_zero"]
          and verification["matches_closed_form"]
          and all(verification["nodes"].values()))
    evidence = {
        "a": str(inp.a), "b": str(inp.b),
        "quartic": polymod.to_json(quartic.poly),
        "verification": verification,
    }
    return ("pass" if ok else "fail"), evidence


def cmd_s2e(args) -> Tuple[str, dict]:
    try:
        params = s2e.WeierstrassParams(_fraction(args.a), _fraction(args.b))
    except s2e.S2EError as exc:
        raise UsageError(str(exc)) from None
    if args.symbolic:
        given = [f"--{name}" for name in ("alpha", "beta") if getattr(args, name) is not None]
        if given:
            raise UsageError(f"--symbolic takes no {' or '.join(given)}: "
                             "alpha and beta are ring variables in symbolic mode")
        ctx = s2e.Context(params, symbolic=True)
        gens = s2e.s_generators(ctx)
        thm = s2e.verify_theorem_relations(ctx)
        evidence = {
            "symbolic": True,
            "identity1_ok": gens["identity1_ok"],
            "identity1_scalar": str(gens["identity1_scalar"]),
            "identity2_ok": gens["identity2_ok"],
            "theorem": thm,
        }
        return "pass", evidence
    alpha = Fraction(1) if args.alpha is None else _fraction(args.alpha)
    beta = Fraction(1) if args.beta is None else _fraction(args.beta)
    if alpha == 0 or beta == 0:
        raise UsageError("invalid glue: alpha and beta must both be nonzero")
    glue = s2e.GluingParams(alpha, beta)
    report = s2e.pipeline_report(params, glue)
    expected_dims = {str(m): m * (m + 1) // 2 for m in range(1, 7)}
    expected_cond = {str(m): m * (m - 3) // 2 + 1 for m in range(2, 6)}
    ok = (report["invariant_dims"] == expected_dims
          and report["antidiagonal_kernel_dim_3"] == 2
          and report["conductor_dims"] == expected_cond
          and report["identity1_ok"] and report["identity2_ok"]
          and report["generation_upto_6"])
    return ("pass" if ok else "fail"), report


def cmd_catalog(args) -> Tuple[str, dict]:
    return "pass", fibration.stratum_catalog()


# -- self tests ----------------------------------------------------------------


def _first_failure(checks: Callable[[], Iterator[Tuple[str, bool]]]
                   ) -> Callable[[], Optional[str]]:
    """Run the (name, ok) checks in order and return the name of the
    first that fails, or None; later checks do not run."""

    @functools.wraps(checks)
    def run() -> Optional[str]:
        return next((name for name, ok in checks() if not ok), None)

    return run


@_first_failure
def _selftest_hilbert():
    series = canring.ci_hilbert_series((1, 2, 2, 3, 3), (6, 6), 12)
    yield "hilbert_series_matches_rr", all(
        series[m] == canring.rr_prediction(1, 2, 1, m) for m in range(1, 13))


@_first_failure
def _selftest_canring():
    model = _demo_model()
    report = canring.validate_canring(model)
    yield "demo_model_valid", report.valid
    base = (Fraction(1), Fraction(1), Fraction(1))
    yield "fiber_count_is_4", canring.bicanonical_fiber_count(
        model, base, validation=report) == 4


@_first_failure
def _selftest_bidouble():
    for name, tag in (("Z1", "elliptic-degree-1"), ("Z4", "elliptic-degree-4")):
        bd = bidouble.known_examples(name)
        yield f"{name}_valid", bidouble.validate_building_data(bd)["valid"]
        pt = bidouble.SPECIAL_POINTS[name][0]
        yield f"{name}_point_tag", bidouble.classify_point(bd, pt).tag == tag
    d = bidouble.DivisorMultiset(
        (("line", 1), ("E", 1)),
        (("L1", 1), ("L2", 1), ("L3", 1), ("E", 3)),
        (("cubic", 1),))
    out = bidouble.normalize_building_data(d)
    yield "normalize", out.to_json() == {"D0": [["line", 1]],
                                         "D1": [["L1", 1], ["L2", 1], ["L3", 1]],
                                         "D2": [["E", 1], ["cubic", 1]]}


@_first_failure
def _selftest_fibration():
    yield "fibration_checks", cmd_fibration(None)[0] == "pass"


@_first_failure
def _selftest_glue():
    config, sym = gluing.builtin_config("four-lines")
    yield "four_lines_orbits", len(gluing.enumerate_gluings(config, sym)) == 3
    config, sym = gluing.builtin_config("cubic-line")
    yield "cubic_line_orbits", not gluing.enumerate_gluings(config, sym)
    yield "minimum_nodes", gluing.minimum_nodes_check()["minimum"] == 3


@_first_failure
def _selftest_implicitize():
    inp = implicitize.ParametrizationInput(Fraction(2), Fraction(3))
    quartic, ver = implicitize.implicitize(inp)
    yield "closed_form", quartic.poly == implicitize.closed_form_quartic(2, 3).poly
    yield "pullback_zero", ver["pullback_zero"]
    yield "nodes", all(ver["nodes"].values())


@_first_failure
def _selftest_s2e():
    params = s2e.WeierstrassParams(Fraction(1), Fraction(1))
    glue = s2e.GluingParams(Fraction(1), Fraction(1))
    rep = s2e.pipeline_report(params, glue)
    yield "identity1", rep["identity1_ok"]
    yield "identity2", rep["identity2_ok"]
    yield "t_system_succeeds", rep["theorem"]["succeeding"].startswith("t-system")


@_first_failure
def _selftest_catalog():
    cat = fibration.stratum_catalog()
    yield "normal_strata_count", cat["normal_strata_count"] == 7
    yield "moduli_dimension", cat["moduli_dimension"] == 18


SELFTESTS: Dict[str, Callable[[], Optional[str]]] = {
    "hilbert": _selftest_hilbert,
    "canring": _selftest_canring,
    "bidouble": _selftest_bidouble,
    "fibration": _selftest_fibration,
    "glue": _selftest_glue,
    "implicitize": _selftest_implicitize,
    "s2e": _selftest_s2e,
    "catalog": _selftest_catalog,
}


# -- dispatch ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a value such as -9/4 as a negative rational, not as an option.

    Subparsers inherit the class, so every subcommand accepts them.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stratabench",
        description="exact computations for the canonical-ring, cover and "
                    "gluing calculus of stable surfaces with K^2=1, chi=2")
    parser.add_argument("--output", help="write the JSON report to this file")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("hilbert", help="Hilbert series of a complete intersection")
    p.add_argument("--weights", default="1,2,2,3,3")
    p.add_argument("--relations", default="6,6")
    p.add_argument("--upto", type=int, default=12)
    p.add_argument("--rr", help="compare against K2,chi,pg Riemann-Roch values")

    p = sub.add_parser("canring", help="validate a canonical-ring model")
    p.add_argument("--model", help="model JSON file (default: demo model)")
    p.add_argument("--fiber", help="count the bicanonical fiber over u0:u1:u2")

    p = sub.add_parser("bidouble", help="bi-double cover building data")
    p.add_argument("--example", choices=bidouble.EXAMPLE_NAMES)
    p.add_argument("--data", help="BuildingData JSON file")
    p.add_argument("--classify", help="points p0:p1:p2 separated by ';'")
    p.add_argument("--normalize", help="DivisorMultiset JSON file to normalise")

    sub.add_parser("fibration", help="fibration numerics checks")

    p = sub.add_parser("glue", help="enumerate gluing involutions")
    p.add_argument("action", nargs="?", default="enumerate",
                   choices=["enumerate"])
    p.add_argument("--config", help="builtin name or a config JSON file")
    p.add_argument("--min-nodes", action="store_true",
                   help="re-derive the three-node minimum")

    p = sub.add_parser("implicitize", help="three-nodal quartic from (a, b)")
    p.add_argument("--a")
    p.add_argument("--b")

    p = sub.add_parser("s2e", help="symmetric-square pipeline verification")
    p.add_argument("action", nargs="?", default="verify", choices=["verify"])
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--alpha", help="gluing parameter, default 1; numeric mode only")
    p.add_argument("--beta", help="gluing parameter, default 1; numeric mode only")
    p.add_argument("--symbolic", action="store_true")

    sub.add_parser("catalog", help="static stratum catalogue")

    for name, sp in sub.choices.items():
        sp.add_argument("--selftest", action="store_true",
                        help="run this module's invariant suite")
    return parser


HANDLERS = {
    "hilbert": cmd_hilbert,
    "canring": cmd_canring,
    "bidouble": cmd_bidouble,
    "fibration": cmd_fibration,
    "glue": cmd_glue,
    "implicitize": cmd_implicitize,
    "s2e": cmd_s2e,
    "catalog": cmd_catalog,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def dispatch(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "selftest", False):
            failed = SELFTESTS[args.subcommand]()
            verdict, evidence = "pass", {"selftest": True}
            if failed is not None:
                verdict, evidence = "fail", {"selftest": False, "failed_check": failed}
        else:
            verdict, evidence = HANDLERS[args.subcommand](args)
    except (UsageError, BudgetSettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PolynomialError, ValueError, BudgetExceeded, s2e.IdentityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "meta": {"tool": "stratabench", "report_format": 1},
        "subcommand": args.subcommand,
        "verdict": verdict,
        "evidence": evidence,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{args.subcommand}: {verdict} (report written to {args.output})")
    else:
        print(f"{args.subcommand}: {verdict}")
        print(text)
    return 0 if verdict == "pass" else 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
