"""Command-line front end.

Every subcommand emits a single deterministic JSON report with a
"verdict" field and structured evidence; run metadata lives in a
separate "meta" field so golden comparisons can ignore it.  Exit codes:
0 success, 1 verification failure, 2 usage error.  Each handler and self
test imports the modules it runs when first called and calls through them,
so importing this module loads no other part of the package.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple, TypeVar

from . import MAX_DIGITS, BudgetExceeded, BudgetSettingError, StratabenchError, bounded_rational

T = TypeVar("T")


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        value = bounded_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})") from None
    if value is None:
        raise UsageError(f"a rational flag has at most {MAX_DIGITS} digits in its numerator "
                         f"and its denominator, got {text!r:.60}")
    return value


def _point(text: str, flag: str) -> Tuple[Fraction, ...]:
    point = tuple(_fraction(t) for t in text.split(":"))
    if len(point) != 3:
        raise UsageError(f"{flag} expects three coordinates p0:p1:p2, got {text!r}")
    if not any(point):
        raise UsageError(f"{flag}: (0:0:0) is not a point of the projective plane")
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
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}") from None
    except RecursionError:
        raise UsageError(f"malformed JSON in {path}: nested too deeply") from None
    except ValueError:
        # int() refuses the literal: it has more than 4300 digits
        raise UsageError(f"malformed document in {path}: a JSON integer has more than "
                         f"{MAX_DIGITS} digits") from None
    try:
        return from_json(doc)
    except (KeyError, TypeError, AttributeError, StratabenchError) as exc:
        raise UsageError(
            f"malformed document in {path}: {type(exc).__name__}: {exc}") from None


# -- subcommand handlers -------------------------------------------------------


def cmd_hilbert(args) -> Tuple[str, dict]:
    from . import canring
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
    from . import canring
    if args.model:
        model = _load(args.model, canring.CanonicalRingModel.from_json)
    else:
        model = canring.demo_model()
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
    from . import bidouble
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
        classes = [bidouble.classify_point(bd, pt) for pt in pts]
        evidence["classification"] = [
            {"point": [str(x) for x in pt], "tag": c.tag,
             "multiplicities": list(c.multiplicities), "diagnostic": c.diagnostic}
            for pt, c in zip(pts, classes)]
    return verdict, evidence


def cmd_fibration(args) -> Tuple[str, dict]:
    from . import fibration
    solutions = fibration.solve_multiple_fibres(2, 3, 12)
    rows = [{"type": r.type_index,
             "admissible": fibration.bielliptic_admissible(r)[0]}
            for r in fibration.BIELLIPTIC_TABLE]
    hirzebruch = fibration.hirzebruch_branch_solve()
    chi = {key: fibration.chi_bookkeeping(2, ms)
           for key, ms in (("(2,[1])", [1]), ("(2,[1,1])", [1, 1]), ("(2,[5])", [5]))}
    checks = {
        "multiple_fibres": [[k, list(ms)] for k, ms in solutions],
        "multiple_fibres_ok": solutions == [(2, (2, 2, 2))],
        "bielliptic": rows,
        "bielliptic_ok": [r["type"] for r in rows if r["admissible"]] == [1, 3, 5, 7],
        "hirzebruch": hirzebruch,
        "hirzebruch_ok": hirzebruch["k"] == 10,
        "chi_examples": chi,
        "chi_ok": [c["valid"] for c in chi.values()] == [True, True, False],
    }
    ok = all(checks[k] for k in
             ("multiple_fibres_ok", "bielliptic_ok", "hirzebruch_ok", "chi_ok"))
    return ("pass" if ok else "fail"), checks


def cmd_glue(args) -> Tuple[str, dict]:
    from . import gluing
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
    from . import implicitize, poly
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
        "quartic": poly.to_json(quartic.poly),
        "verification": verification,
    }
    return ("pass" if ok else "fail"), evidence


def cmd_s2e(args) -> Tuple[str, dict]:
    from . import s2e
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
        evidence = s2e.check_identities(ctx)
        evidence.update(symbolic=True, identity1_scalar=str(evidence["identity1_scalar"]),
                        theorem=s2e.verify_theorem_relations(ctx))
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
    from . import fibration
    return "pass", fibration.stratum_catalog()


# -- self tests ----------------------------------------------------------------


def _normalizes(v, e) -> bool:
    # the handler reads a multiset only from a file, so this check calls the library
    from . import bidouble
    d = bidouble.DivisorMultiset(
        (("line", 1), ("E", 1)),
        (("L1", 1), ("L2", 1), ("L3", 1), ("E", 3)),
        (("cubic", 1),))
    return bidouble.normalize_building_data(d).to_json() == {
        "D0": [["line", 1]], "D1": [["L1", 1], ["L2", 1], ["L3", 1]],
        "D2": [["E", 1], ["cubic", 1]]}


def _closed_form(v, e) -> bool:
    from . import implicitize, poly
    return e["quartic"] == poly.to_json(implicitize.closed_form_quartic(2, 3).poly)


# subcommand -> {argv after the subcommand: its checks}; each argv runs the
# handler once, and each check, in order, is (name, test of its verdict v
# and evidence e)
SELFTESTS: Dict[str, Dict[str, list]] = {
    "hilbert": {"--rr 1,2,1": [("hilbert_series_matches_rr", lambda v, e: e["rr_agrees"])]},
    "canring": {"--fiber 1:1:1": [("demo_model_valid", lambda v, e: e["validation"]["valid"]),
                                  ("fiber_count_is_4", lambda v, e: e["fiber_count"] == 4)]},
    "bidouble": {
        "--example Z1 --classify 0:0:1": [
            ("Z1_valid", lambda v, e: e["validation"]["valid"]),
            ("Z1_point_tag", lambda v, e: e["classification"][0]["tag"] == "elliptic-degree-1")],
        "--example Z4 --classify 0:0:1": [
            ("Z4_valid", lambda v, e: e["validation"]["valid"]),
            ("Z4_point_tag", lambda v, e: e["classification"][0]["tag"] == "elliptic-degree-4"),
            ("normalize", _normalizes)]},
    "fibration": {"": [("fibration_checks", lambda v, e: v == "pass")]},
    "glue": {"--config four-lines": [("four_lines_orbits", lambda v, e: e["orbit_count"] == 3)],
             "--config cubic-line": [("cubic_line_orbits", lambda v, e: e["orbit_count"] == 0)],
             "--min-nodes": [("minimum_nodes",
                              lambda v, e: e["minimum_nodes"]["minimum"] == 3)]},
    "implicitize": {"--a 2 --b 3": [
        ("closed_form", _closed_form),
        ("pullback_zero", lambda v, e: e["verification"]["pullback_zero"]),
        ("nodes", lambda v, e: all(e["verification"]["nodes"].values()))]},
    "s2e": {"": [("identity1", lambda v, e: e["identity1_ok"]),
                 ("identity2", lambda v, e: e["identity2_ok"]),
                 ("t_system_succeeds",
                  lambda v, e: e["theorem"]["succeeding"].startswith("t-system"))]},
    "catalog": {"": [("normal_strata_count", lambda v, e: e["normal_strata_count"] == 7),
                     ("moduli_dimension", lambda v, e: e["moduli_dimension"] == 18)]},
}


def _selftest(sub: str) -> Iterator[Tuple[str, bool]]:
    """(name, ok) of each check of `sub`, in order."""
    for argv, checks in SELFTESTS[sub].items():
        verdict, evidence = HANDLERS[sub](_parser().parse_args([sub, *argv.split()]))
        for name, ok in checks:
            yield name, ok(verdict, evidence)


# -- report text ---------------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii


def _report_text(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, written in one pass.

    With an indent, json encodes in pure Python and yields each
    separator, key and value as a string of its own.  Here a dict item
    or list element is one chunk with its separator, indentation and
    key, and a list of ints or of strings is one chunk.  Dict items are
    sorted on their own keys, as json sorts them, and a key that is no
    string is then written as json writes it; a value or a key that
    json refuses raises its TypeError.
    """
    chunks: List[str] = []
    _write("", doc, "\n", chunks)
    return "".join(chunks)


def _key(key) -> str:
    """A dict key as json writes it: always a JSON string."""
    if isinstance(key, str):
        return _escape(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{json.dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(head: str, value, indent: str, chunks: List[str]) -> None:
    """Append `head` followed by the text of `value`, whose line starts
    with `indent`."""
    if isinstance(value, str):
        chunks.append(head + _escape(value))
    elif type(value) is int:
        chunks.append(head + int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        sep = head + "{" + inner
        for key, item in sorted(value.items()):
            _write(sep + _key(key) + ": ", item, inner, chunks)
            sep = "," + inner
        chunks.append(indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        if all(type(x) is int for x in value):
            texts = map(int.__repr__, value)
        elif all(type(x) is str for x in value):
            texts = map(_escape, value)
        else:
            sep = head + "[" + inner
            for item in value:
                _write(sep, item, inner, chunks)
                sep = "," + inner
            chunks.append(indent + "]")
            return
        chunks.append(head + "[" + inner + ("," + inner).join(texts) + indent + "]")
    else:
        # None, a bool, a float, an empty dict or list, or what json refuses
        chunks.append(head + json.dumps(value))


# -- dispatch ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a value such as -9/4, or a list such as -2,1 or -1:0:0, as a
    value and not as an option.

    Subparsers inherit the class, so every subcommand accepts them.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+(/\d+)?|\d*\.\d+)([,:;]-?(\d+(/\d+)?|\d*\.\d+))*$")

    def _get_values(self, action, arg_strings):
        if action.option_strings:
            # argparse drops the '--' of --flag=-- and would hand on no value
            if arg_strings == ["--"]:
                raise argparse.ArgumentError(action, "expected a value, got '--'")
            # the handlers read an empty value of a flag with no default as
            # an absent flag; an empty --weights or --relations is an empty list
            if arg_strings == [""] and action.default is None:
                raise argparse.ArgumentError(action, "expected a value, got ''")
        return super()._get_values(action, arg_strings)

    def error(self, message):
        """A rejection is a UsageError: one line, with no usage block."""
        raise UsageError(message)


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
    # bidouble.EXAMPLE_NAMES, written out so that building the parser imports no bidouble
    p.add_argument("--example", choices=("Z1", "Z1prime", "Z4", "bielliptic", "torus"))
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
    try:
        args = _parser().parse_args(argv)
        if args.selftest:
            # the first failing check ends the run; later checks do not run
            failed = next((name for name, ok in _selftest(args.subcommand) if not ok), None)
            verdict, evidence = "pass", {"selftest": True}
            if failed is not None:
                verdict, evidence = "fail", {"selftest": False, "failed_check": failed}
        else:
            verdict, evidence = HANDLERS[args.subcommand](args)
    except (UsageError, BudgetSettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BudgetExceeded, StratabenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "meta": {"tool": "stratabench", "report_format": 1},
        "subcommand": args.subcommand,
        "verdict": verdict,
        "evidence": evidence,
    }
    text = _report_text(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"usage error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
        lines = (f"{args.subcommand}: {verdict} (report written to {args.output})",)
    else:
        lines = (f"{args.subcommand}: {verdict}", text)
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; the interpreter's last
        # flush of what is still buffered goes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if verdict == "pass" else 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
