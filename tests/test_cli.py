import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratabench.cli import _report_text, dispatch

RUN = [sys.executable, "-m", "stratabench"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def test_exit_codes():
    assert run_cli("catalog").returncode == 0
    assert run_cli("nonsense").returncode == 2
    assert run_cli("s2e", "verify", "--a", "1", "--b", "1",
                   "--alpha", "0", "--beta", "0").returncode == 2
    assert run_cli("implicitize", "--a", "1", "--b", "2").returncode == 2
    assert run_cli("implicitize", "--a", "x", "--b", "2").returncode == 2


def test_reports_byte_identical():
    for args in (("catalog",), ("fibration",), ("implicitize", "--a", "2", "--b", "3"),
                 ("glue", "--config", "four-lines")):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout


def test_report_structure():
    out = run_cli("implicitize", "--a", "2", "--b", "3")
    body = out.stdout.split("\n", 1)[1]
    doc = json.loads(body)
    assert doc["verdict"] == "pass"
    assert doc["subcommand"] == "implicitize"
    assert "meta" in doc and "evidence" in doc
    terms = doc["evidence"]["quartic"]["terms"]
    assert len(terms) == 6
    assert {t["c"] for t in terms} == {"21", "40", "-25", "-4", "5", "6"}


def test_glue_enumerate_four_lines():
    out = run_cli("glue", "--config", "four-lines")
    doc = json.loads(out.stdout.split("\n", 1)[1])
    assert doc["evidence"]["orbit_count"] == 3


def test_selftests_all_pass():
    for sub in ("hilbert", "canring", "bidouble", "fibration", "glue",
                "implicitize", "s2e", "catalog"):
        out = run_cli(sub, "--selftest")
        assert out.returncode == 0, (sub, out.stdout, out.stderr)


def test_malformed_json_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a1": \n  oops}', encoding="utf-8")
    out = run_cli("canring", "--model", str(bad))
    assert out.returncode == 2
    assert "line" in out.stderr and "column" in out.stderr
    bad.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    out = run_cli("glue", "--config", str(bad))
    assert out.returncode == 2
    assert out.stderr == f"usage error: malformed JSON in {bad}: nested too deeply\n"


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("--output", str(target), "hilbert", "--upto", "6",
                  "--rr", "1,2,1")
    assert out.returncode == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["evidence"]["series"] == [1, 1, 3, 5, 8, 12, 17]
    assert doc["evidence"]["rr_agrees"]


def test_dispatch_in_process():
    # the dispatch function itself is usable as a library entry point
    assert dispatch(["catalog"]) == 0
    assert dispatch(["s2e", "verify", "--a", "1", "--b", "1",
                     "--alpha", "1", "--beta", "1"]) == 0


def test_bidouble_classify_cli():
    out = run_cli("bidouble", "--example", "Z1", "--classify", "0:0:1")
    assert out.returncode == 0
    doc = json.loads(out.stdout.split("\n", 1)[1])
    assert doc["evidence"]["classification"][0]["tag"] == "elliptic-degree-1"


def test_step_budget_env(tmp_path, monkeypatch):
    import os
    env = dict(os.environ)
    env["STRATABENCH_STEP_BUDGET"] = "100"
    out = subprocess.run(RUN + ["implicitize", "--a", "2", "--b", "3"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert "budget" in out.stderr.lower()
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
    # the message names the stage that tripped, the steps it spent and the budget
    assert out.stderr.startswith("error: groebner.buchberger: 101 steps exceed the step budget "
                                 "of 100;")


def test_step_budget_caps_rref_in_s2e_verify():
    import os
    env = dict(os.environ, STRATABENCH_STEP_BUDGET="20")
    out = subprocess.run(RUN + ["s2e", "verify", "--a", "2/3", "--b", "-5/7",
                                "--alpha", "1", "--beta", "1"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: linalg.rref: 21 steps exceed the step budget of 20;")


@pytest.mark.parametrize("flags", [["--alpha=1", "--beta=1"], ["--symbolic"]])
def test_step_budget_caps_the_s2e_kernel(monkeypatch, capsys, flags):
    # each normal form spends one step per term product; the first one
    # with more than 5 trips the budget, numeric and symbolic alike
    steps = 6 if flags == ["--symbolic"] else 8
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "5")
    assert dispatch(["s2e", "verify", "--a=2/3", "--b=-5/7"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith(f"error: s2e.normal_form: {steps} steps exceed the step budget of 5;")


@pytest.mark.parametrize("flags, named", [
    (["--alpha=1"], "--alpha"), (["--beta=2"], "--beta"),
    (["--alpha=1", "--beta=1"], "--alpha or --beta")])
def test_symbolic_refuses_alpha_and_beta(capsys, flags, named):
    assert dispatch(["s2e", "verify", "--symbolic"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"usage error: --symbolic takes no {named}: "
                            "alpha and beta are ring variables in symbolic mode\n")


def test_numeric_s2e_defaults_alpha_and_beta_to_one(capsys):
    assert dispatch(["s2e", "verify", "--alpha=1"]) == 0
    default = capsys.readouterr().out
    assert dispatch(["s2e", "verify", "--alpha=1", "--beta=1"]) == 0
    assert capsys.readouterr().out == default


def test_identity_error_is_one_line(monkeypatch, capsys):
    from stratabench import s2e

    def broken(ctx):
        raise s2e.IdentityError("identity II (s3 pinning) failed", ctx.ring.one())

    monkeypatch.setattr(s2e, "check_identities", broken)
    assert dispatch(["s2e", "verify", "--symbolic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: identity II") and len(err.splitlines()) == 1


def test_malformed_documents(tmp_path):
    model = tmp_path / "model.json"
    term_free = {"vars": ["x", "y1", "y2"], "weights": [1, 2, 2]}
    model.write_text(json.dumps({k: term_free for k in ("a1", "a2", "b1", "b2")}),
                     encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text("[1, 2]", encoding="utf-8")
    from stratabench import bidouble
    cases = [(("canring", "--model", str(model)), model),
             (("glue", "--config", str(config)), config)]
    for k, (field, value) in enumerate((("c", "1/0"), ("c", "abc"), ("e", [1, 0]))):
        doc = bidouble.known_examples("Z1").to_json()
        doc["D0"]["terms"][0][field] = value
        data = tmp_path / f"data{k}.json"
        data.write_text(json.dumps(doc), encoding="utf-8")
        cases.append((("bidouble", "--data", str(data)), data))
    for args, path in cases:
        out = run_cli(*args)
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith(f"usage error: malformed document in {path}")
        assert len(out.stderr.splitlines()) == 1


def glue_doc(genus=0, marks=("a", "b"), matching=(("a", "b"),), **extra):
    return {"components": [{"genus": genus, "marks": list(marks)}],
            "matching": [list(p) for p in matching], **extra}


def multiset_doc(*entries):
    return {"D0": [list(e) for e in entries], "D1": [], "D2": []}


@pytest.mark.parametrize("subcommand,doc", [
    ("glue", glue_doc(genus="abc")),
    ("glue", glue_doc(genus=1.5)),
    ("glue", glue_doc(genus=True)),
    ("glue", glue_doc(marks=(1, 2), matching=((1, 2),))),
    ("glue", glue_doc(matching=(("a", "b", "c"),))),
    ("glue", glue_doc(node_names=[3])),
    ("bidouble", multiset_doc(("a", "abc"))),
    ("bidouble", multiset_doc(("a", 1.5))),
    ("bidouble", multiset_doc(("a", 1, 2))),
    ("bidouble", multiset_doc((1, 1))),
    ("canring", {k: {"vars": ["x", "y1", "y2"], "weights": ["a", 2, 2], "terms": []}
                 for k in ("a1", "a2", "b1", "b2")}),
], ids=["genus-abc", "genus-float", "genus-bool", "int-marks", "matching-triple",
        "int-node-name", "multiplicity-abc", "multiplicity-float", "entry-triple",
        "int-label", "weights-abc"])
def test_wrong_json_type_is_a_usage_error(tmp_path, capsys, subcommand, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    flag = {"glue": "--config", "bidouble": "--normalize", "canring": "--model"}[subcommand]
    assert dispatch([subcommand, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: malformed document in {path}: TypeError: ")
    assert len(err.splitlines()) == 1


def test_negative_genus_and_multiplicity_fail_verification(tmp_path, capsys):
    for argv, doc, message in (
            (["glue", "--config"], glue_doc(genus=-1), "genus must be non-negative"),
            (["bidouble", "--normalize"], multiset_doc(("a", -1)), "negative multiplicity")):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert dispatch(argv + [str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


SCALARS = st.one_of(st.integers(-2, 3), st.integers(), st.just(10 ** 30), st.floats(),
                    st.booleans(), st.text("ab1", max_size=2), st.none())
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))


@st.composite
def loader_documents(draw):
    """A glue config or divisor multiset, each part replaced by a value
    of some JSON type one time in eight.  The labels are all strings or
    all ints, drawn once, so a config may be consistent and still use
    int labels."""
    def part(good):
        return draw(VALUES) if draw(st.integers(0, 7)) == 7 else good

    labels = draw(st.lists(st.sampled_from("abcdef"), max_size=6, unique=True)
                  | st.lists(st.integers(0, 5), max_size=6, unique=True))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        pairs = [part(labels[i:i + 2]) for i in range(0, len(labels), 2)]
        doc = {"components": part([{"genus": part(draw(st.integers(-1, 2))),
                                    "marks": part(labels[i::k])} for i in range(k)]),
               "matching": part(pairs)}
        if draw(st.booleans()):
            doc["node_names"] = part([f"N{i}" for i in range(len(pairs))])
        return ["glue", "--config"], part(doc)
    doc = {key: part([part([part(label), part(draw(st.integers(-1, 3)))])
                      for label in labels[j::3]]) for j, key in enumerate(("D0", "D1", "D2"))}
    return ["bidouble", "--normalize"], part(doc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(loader_documents())
def test_json_loaders_end_in_an_exit_code(argv_doc):
    argv, doc = argv_doc
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"STRATABENCH_STEP_BUDGET": "20000"}):
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv + [path])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (code != 0)


def _slots(node):
    """Every (container, key) pair below a JSON document, in document order."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


COEFFICIENTS = st.sampled_from(["1/0", "-3/4", "1e2", "2.5", "abc", "", " 7"])


@st.composite
def polynomial_documents(draw, subcommand):
    """The demo canring model or the Z1 building data, with one to three
    parts each replaced by a value of some JSON type or a coefficient
    string, deleted, or (a list) lengthened by one item; one time in ten
    the whole document is replaced."""
    from stratabench import bidouble, canring
    if subcommand == "canring":
        argv, doc = ["canring", "--model"], canring.demo_model().to_json()
    else:
        argv, doc = ["bidouble", "--data"], bidouble.known_examples("Z1").to_json()
    if draw(st.integers(0, 9)) == 0:
        return argv, draw(VALUES)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "lengthen"]))
        if action == "delete":
            del container[key]
        elif action == "lengthen" and isinstance(container[key], list):
            container[key].append(draw(SCALARS))
        else:
            container[key] = draw(st.one_of(VALUES, COEFFICIENTS))
    return argv, doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polynomial_documents("canring"), polynomial_documents("bidouble"))
def test_polynomial_documents_end_in_an_exit_code(model, data):
    for argv, doc in (model, data):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {"STRATABENCH_STEP_BUDGET": "2000"}):
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv + [path])
        # a model that parses but fails validation exits 1 with its report on stdout
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue() and len(err.getvalue().splitlines()) <= 1
        if code == 2:
            assert err.getvalue().startswith("usage error: ")


# every numeric and path flag, after the arguments that make it reachable
NUMERIC_FLAGS = [(["hilbert"], "--weights"), (["hilbert"], "--relations"),
                 (["hilbert"], "--upto"), (["hilbert"], "--rr"), (["canring"], "--fiber"),
                 (["bidouble", "--example=Z1"], "--classify"),
                 (["implicitize", "--b=3"], "--a"), (["implicitize", "--a=2"], "--b"),
                 (["s2e", "verify"], "--a"), (["s2e", "verify"], "--b"),
                 (["s2e", "verify"], "--alpha"), (["s2e", "verify"], "--beta")]
PATH_FLAGS = [(["canring"], "--model"), (["bidouble"], "--data"),
              (["bidouble"], "--normalize"), (["glue"], "--config")]
SEED_VALUES = ["--", "1/0", "0x10", "1_000", "1e3", "9" * 400, "1/" + "7" * 400, ""]
FLAG_VALUES = st.one_of(st.sampled_from(SEED_VALUES), st.text("-0123456789/.e_", max_size=6))


@st.composite
def flag_runs(draw):
    """An argv with one numeric flag set to a seed or random value, or a
    list of up to three of them; or with one path flag (or --output)
    set to a seed value, a missing path or a directory."""
    if draw(st.booleans()):
        prefix, flag = draw(st.sampled_from(NUMERIC_FLAGS))
        value = draw(st.sampled_from(",:")).join(draw(st.lists(FLAG_VALUES, min_size=1,
                                                               max_size=3)))
        return prefix + [f"{flag}={value}"]
    value = draw(st.sampled_from(SEED_VALUES + ["missing.json", "."]))
    if draw(st.integers(0, 4)) == 0:
        return [f"--output={value}", "catalog"]
    prefix, flag = draw(st.sampled_from(PATH_FLAGS))
    return prefix + [f"{flag}={value}"]


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag_runs())
def test_every_flag_value_ends_in_an_exit_code(monkeypatch, tmp_path, argv):
    # one budget and one working directory for every example: a small
    # budget bounds each run, and --output writes only below tmp_path
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "100")
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and len(err.getvalue().splitlines()) <= 1


# every flag that reads rationals, through `cli._fraction`
RATIONAL_FLAGS = [(prefix, flag) for prefix, flag in NUMERIC_FLAGS if prefix[0] != "hilbert"]


@pytest.mark.parametrize("prefix, flag", RATIONAL_FLAGS)
def test_rational_flags_take_at_most_100_digits(capsys, prefix, flag):
    # the step budget does not count coefficient size, so the digits are
    # bounded; an exponent of five digits is refused before 10**n is built
    for value in ("9" * 101, "1/" + "7" * 101, "1e100", "-1e-100", "1e99999999"):
        arg = f"{flag}=1:0:{value}" if flag in ("--fiber", "--classify") else f"{flag}={value}"
        assert dispatch(prefix + [arg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: a rational flag has at most 100 digits in its ")
        assert err.count("\n") == 1


def test_a_five_digit_exponent_is_refused_unparsed(monkeypatch, capsys):
    # Fraction("1e<n>") builds 10**n before any digit count could refuse it
    import stratabench
    import stratabench.cli as cli
    for module in (stratabench, cli):
        monkeypatch.setattr(module, "Fraction", None)  # a call would raise TypeError
    assert dispatch(["implicitize", "--a=1e99999999", "--b=3"]) == 2
    assert "at most 100 digits" in capsys.readouterr().err


def test_a_100_digit_rational_flag_still_runs(capsys):
    assert dispatch(["implicitize", "--a=" + "9" * 100 + "/7", "--b=5/" + "7" * 100]) == 0
    assert dispatch(["implicitize", "--a=1e99", "--b=-1e-99"]) == 0
    capsys.readouterr()


def test_document_coefficients_take_at_most_100_digits(tmp_path, capsys):
    # a polynomial document's coefficients are bounded as the rational flags
    # are: "1e100000" alone would build 10**100000 (46 s) before any count
    from stratabench import bidouble, canring
    for value in ("1e100000", "9" * 101, "1/" + "7" * 101, 10 ** 100):
        for argv, doc, part in (
                (["bidouble", "--data"], bidouble.known_examples("Z1").to_json(), "D0"),
                (["canring", "--model"], canring.demo_model().to_json(), "b1")):
            doc[part]["terms"][0]["c"] = value
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            start = time.perf_counter()
            assert dispatch(argv + [str(path)]) == 2
            assert time.perf_counter() - start < 1
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: malformed document in {path}: PolynomialError: "
                                  "a JSON coefficient has at most 100 digits in its ")
            assert err.count("\n") == 1
    # past 4300 digits the JSON reader itself refuses the integer
    doc = bidouble.known_examples("Z1").to_json()
    doc["D0"]["terms"][0]["c"] = 0
    path.write_text(json.dumps(doc).replace('"c": 0', '"c": 1' + "0" * 5000), encoding="utf-8")
    assert dispatch(["bidouble", "--data", str(path)]) == 2
    assert capsys.readouterr().err == (f"usage error: malformed document in {path}: "
                                       "a JSON integer has more than 100 digits\n")
    doc["D0"]["terms"][0]["c"] = "9" * 100
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert dispatch(["bidouble", "--data", str(path)]) in (0, 1)
    assert capsys.readouterr().out.startswith("bidouble: ")


def test_well_formed_invalid_model_is_a_verification_error(tmp_path, capsys):
    from stratabench import bidouble
    doc = bidouble.known_examples("Z1").to_json()
    doc["D1"] = doc["D0"]
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc), encoding="utf-8")
    assert dispatch(["bidouble", "--data", str(data)]) == 1
    assert capsys.readouterr().err == "error: D1 must be homogeneous of degree 3\n"


def test_failed_selftest_names_its_check(monkeypatch, capsys):
    assert dispatch(["hilbert", "--selftest"]) == 0
    passing = capsys.readouterr().out
    assert json.loads(passing.split("\n", 1)[1])["evidence"] == {"selftest": True}
    from stratabench import canring
    monkeypatch.setattr(canring, "ci_hilbert_series",
                        lambda weights, relations, upto: [0] * (upto + 1))
    assert dispatch(["hilbert", "--selftest"]) == 1
    doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert doc["verdict"] == "fail"
    assert doc["evidence"] == {"selftest": False, "failed_check": "hilbert_series_matches_rr"}


def test_selftest_reads_the_report_of_its_handler(monkeypatch, capsys):
    import stratabench.cli as cli
    handler = cli.HANDLERS["s2e"]

    def identity2_fails(args):
        verdict, evidence = handler(args)
        return verdict, dict(evidence, identity2_ok=False)

    monkeypatch.setitem(cli.HANDLERS, "s2e", identity2_fails)
    assert dispatch(["s2e", "--selftest"]) == 1
    doc = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert doc["evidence"] == {"selftest": False, "failed_check": "identity2"}


@pytest.mark.parametrize("sub, runs", [
    ("hilbert", 1), ("canring", 1), ("bidouble", 2), ("fibration", 1), ("glue", 3),
    ("implicitize", 1), ("s2e", 1), ("catalog", 1)])
def test_selftest_runs_its_handler_once_per_argv(monkeypatch, capsys, sub, runs):
    import stratabench.cli as cli
    handler, calls = cli.HANDLERS[sub], []
    monkeypatch.setitem(cli.HANDLERS, sub, lambda args: calls.append(args) or handler(args))
    assert dispatch([sub, "--selftest"]) == 0
    assert len(calls) == runs and not any(args.selftest for args in calls)
    capsys.readouterr()


def test_negative_rational_option_values():
    out = run_cli("implicitize", "--a", "-9/4", "--b", "2")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.split("\n", 1)[1])
    assert doc["evidence"]["a"] == "-9/4"
    assert run_cli("implicitize", "--a", "-9/4", "--b", "-x").returncode == 2


@pytest.mark.parametrize("argv", [["hilbert", "--weights", "-2,1"],
                                  ["hilbert", "--relations", "-6,6"],
                                  ["hilbert", "--rr", "-1,2,1"],
                                  ["canring", "--fiber", "-1:1:1"],
                                  ["bidouble", "--classify", "-1:0:0"]],
                         ids=lambda argv: " ".join(argv))
def test_negative_list_values_read_as_their_equals_form(argv, capsys):
    # argparse reads a separate value that starts with '-' as an option
    # unless the parser's negative-number matcher accepts it
    rc = dispatch(argv)
    spaced = capsys.readouterr()
    assert dispatch(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == rc
    assert capsys.readouterr() == spaced
    assert not spaced.err.startswith("usage error")


@pytest.mark.parametrize("argv", [["hilbert", "--upto", "2/0"],
                                  ["bidouble", "--example", "nope"],
                                  ["nonsense"], []],
                         ids=["bad-int", "bad-choice", "unknown-subcommand", "no-subcommand"])
def test_argparse_rejection_is_one_usage_line(argv):
    out = run_cli(*argv)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("usage error: ") and len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["implicitize", "--a=--", "--b=3"], ["implicitize", "--a=2", "--b=--"],
    ["s2e", "verify", "--a=--"], ["s2e", "verify", "--b=--"],
    ["s2e", "verify", "--alpha=--"], ["s2e", "verify", "--beta=--"],
    ["hilbert", "--weights=--"], ["hilbert", "--relations=--"], ["hilbert", "--upto=--"],
    ["hilbert", "--rr=--"], ["glue", "--config=--"], ["canring", "--model=--"],
    ["canring", "--fiber=--"], ["bidouble", "--data=--"], ["bidouble", "--normalize=--"],
    ["bidouble", "--example=Z1", "--classify=--"], ["bidouble", "--example=--"],
    ["--output=--", "catalog"]], ids=lambda argv: " ".join(argv))
def test_double_dash_value_is_one_usage_line(argv, capsys):
    # argparse drops the '--' of --flag=--, which would leave the flag no value
    flag = next(a for a in argv if a.endswith("=--"))[:-3]
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: argument {flag}: expected a value, got '--'\n"


@pytest.mark.parametrize("argv", [
    ["glue", "--config="], ["canring", "--model="], ["canring", "--fiber="],
    ["bidouble", "--data="], ["bidouble", "--normalize="],
    ["bidouble", "--example=Z1", "--classify="], ["bidouble", "--example="],
    ["--output=", "catalog"], ["hilbert", "--rr="], ["implicitize", "--a=", "--b=3"],
    ["implicitize", "--a=2", "--b="], ["s2e", "verify", "--alpha="],
    ["s2e", "verify", "--beta="]], ids=lambda argv: " ".join(argv))
def test_empty_value_is_one_usage_line(argv, capsys):
    # the handlers' `if args.<flag>:` tests would read '' as an absent flag
    flag = next(a for a in argv if a.endswith("="))[:-1]
    i = argv.index(flag + "=")
    for form in (argv, argv[:i] + [flag, ""] + argv[i + 1:]):
        assert dispatch(form) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: argument {flag}: expected a value, got ''\n"


def test_help_keeps_its_usage_block():
    out = run_cli("hilbert", "--help")
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.startswith("usage: stratabench hilbert [-h]")


def test_classify_needs_three_coordinates(capsys):
    for points in ("1:2", "1:2:3:4", "0:0:1;1:2"):
        assert dispatch(["bidouble", "--example", "Z1", "--classify", points]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --classify") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["canring", "--fiber", "0:0:0"],
    ["canring", "--fiber", "0:0/5:-0"],
    ["bidouble", "--example", "Z1", "--classify", "0:0:0"],
    ["bidouble", "--example", "Z1", "--classify", "0:0:1;0:0:0"],
])
def test_zero_triple_is_not_a_point(argv, capsys):
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"usage error: {argv[-2]}: (0:0:0) is not a point")


@pytest.mark.parametrize("argv, degree", [
    (["hilbert", "--weights", ""], 6),
    (["hilbert", "--weights=2", "--relations=3"], 3),
])
def test_hilbert_refuses_a_negative_coefficient(argv, degree, capsys):
    assert dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: not a complete intersection")
    assert err.endswith(f" in degree {degree}\n")


def test_rr_needs_three_integers(capsys):
    for value in ("1,2", "a,b,c", "1,2,3,4"):
        assert dispatch(["hilbert", "--rr", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --rr") and len(err.splitlines()) == 1


def test_gluing_over_budget_is_refused_up_front(tmp_path):
    import time

    a = [f"a{i}" for i in range(12)]
    b = [f"b{i}" for i in range(12)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "components": [{"genus": 0, "marks": a}, {"genus": 0, "marks": b}],
        "matching": [list(p) for p in zip(a, b)]}), encoding="utf-8")
    start = time.perf_counter()
    out = subprocess.run(RUN + ["glue", "--config", str(config)],
                         capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert out.returncode == 1
    # 12! mark maps swapping the components plus 11!!^2 keeping them
    assert out.stderr == ("error: gluing.enumerate: 587057625 steps exceed the step budget "
                          "of 2000000; raise STRATABENCH_STEP_BUDGET if intended\n")


def test_hilbert_over_budget_is_refused_up_front(capsys):
    # 3 series factors times 10^7 + 1 coefficients exceed the default budget
    import time

    start = time.perf_counter()
    assert dispatch(["hilbert", "--weights=1,1", "--relations=6", "--upto=10000000"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: canring.hilbert_series: 30000003 steps exceed the step budget "
                   "of 2000000; raise STRATABENCH_STEP_BUDGET if intended\n")


def test_hilbert_charges_the_step_budget(monkeypatch, capsys):
    # --upto=3 over weights 1,1 and relation 6 costs 3 * 4 = 12 updates
    argv = ["hilbert", "--weights=1,1", "--relations=6", "--upto=3"]
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "11")
    assert dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: canring.hilbert_series: 12 steps exceed the step budget "
                          "of 11;")
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "12")
    assert dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["evidence"]["series"] == \
        [1, 2, 3, 4]


def test_malformed_step_budget_is_a_usage_error(monkeypatch, capsys):
    for value in ("abc", "-3", "1e3"):
        monkeypatch.setenv("STRATABENCH_STEP_BUDGET", value)
        for argv in (["glue", "--config", "two-conics"], ["implicitize", "--a", "2", "--b", "3"]):
            assert dispatch(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: STRATABENCH_STEP_BUDGET")
            assert len(err.splitlines()) == 1


def test_unknown_glue_config_is_a_usage_error(capsys):
    assert dispatch(["glue", "--config", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown config 'nosuch'") and len(err.splitlines()) == 1


def test_canring_fiber_validates_once(monkeypatch, capsys):
    from stratabench import canring
    calls = []
    validate, gcd = canring.validate_canring, canring.poly_gcd
    monkeypatch.setattr(canring, "validate_canring",
                        lambda m: calls.append("validate") or validate(m))
    monkeypatch.setattr(canring, "poly_gcd", lambda f, g: calls.append("gcd") or gcd(f, g))
    for argv in (["canring", "--fiber", "1:1:1"], ["canring", "--selftest"]):
        calls.clear()
        assert dispatch(argv) == 0
        # a valid model is coprime by its nonzero x = 0 resultant; no gcd runs
        assert calls == ["validate"], argv
    capsys.readouterr()


def test_one_parser_gives_the_reports_of_fresh_parsers(monkeypatch, capsys):
    import stratabench.cli as cli
    argvs = [["hilbert", "--upto", "5"], ["catalog"], ["hilbert"],
             ["canring", "--fiber", "0:1:1"], ["bidouble", "--example", "Z4"],
             ["s2e", "--symbolic", "--a=-2/3"], ["glue", "--config", "two-conics"],
             ["hilbert", "--rr", "1,2,1"], ["canring"]]

    def reports():
        out = []
        for argv in argvs:
            code = dispatch(argv)
            out.append((code, capsys.readouterr().out))
        return out

    cli._parser.cache_clear()
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    shared = reports()
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", build)
    assert shared == reports()


def _refuse_open(file, *args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied", file)


@pytest.mark.parametrize("case", ["output-missing-dir", "output-is-dir", "model-is-dir",
                                  "model-unreadable", "model-not-utf8"])
def test_file_errors_are_one_usage_line(tmp_path, monkeypatch, capsys, case):
    from stratabench import cli
    model = tmp_path / "model.json"
    model.write_text("{}", encoding="utf-8")
    if case == "output-missing-dir":
        path, argv = tmp_path / "missing" / "x.json", ["--output", "PATH", "catalog"]
    elif case == "output-is-dir":
        path, argv = tmp_path, ["--output", "PATH", "catalog"]
    elif case == "model-is-dir":
        path, argv = tmp_path, ["canring", "--model", "PATH"]
    elif case == "model-unreadable":
        # a permission bit does not stop root, so the refusal is simulated
        path, argv = model, ["canring", "--model", "PATH"]
        monkeypatch.setattr(cli, "open", _refuse_open, raising=False)
    else:
        path, argv = model, ["canring", "--model", "PATH"]
        model.write_bytes(b'{"x": "\xff\xfe"}')
    code = dispatch([str(path) if a == "PATH" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(path) in err
    assert out == ""


def closed_early(argv, read_line):
    """(first line read, exit code, stderr) of a run whose reader closes
    stdout after reading `read_line` lines."""
    proc = subprocess.Popen(RUN + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline() if read_line else None
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return line, proc.wait(timeout=60), stderr


def test_reader_closing_the_pipe_early_is_no_error(tmp_path):
    # a genus-1 (6, 6) report is 678 800 bytes, more than a pipe buffer
    a = [f"a{i}" for i in range(6)]
    b = [f"b{i}" for i in range(6)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "components": [{"genus": 1, "marks": a}, {"genus": 1, "marks": b}],
        "matching": [list(p) for p in zip(a, b)]}), encoding="utf-8")
    assert closed_early(["glue", "--config", str(config)], True) == ("glue: pass\n", 0, "")
    # the one status line of --output, to a reader that read nothing
    report = tmp_path / "report.json"
    assert closed_early(["--output", str(report), "catalog"], False) == (None, 0, "")
    assert json.loads(report.read_text(encoding="utf-8"))["verdict"] == "pass"


# -- report text ---------------------------------------------------------------

# ints of over 100 digits, strings with control characters and non-ASCII
_LEAVES = (st.none() | st.booleans() | st.floats() | st.text() | st.integers()
           | st.integers(10 ** 100, 10 ** 130) | st.integers(-(10 ** 130), -(10 ** 100)))


def _containers(children):
    items = st.lists(children, max_size=5)
    return (items | items.map(tuple)
            | st.dictionaries(st.text(), children, max_size=5)
            | st.dictionaries(st.integers() | st.booleans(), children, max_size=5)
            | st.dictionaries(st.none(), children, max_size=1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.recursive(_LEAVES, _containers, max_leaves=40))
def test_report_text_is_json_dumps_indented_and_sorted(doc):
    assert _report_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_report_text_edge_cases():
    docs = [
        {10: "ten", 9: "nine", 100: [], -3: {}, True: None},   # int keys sort as ints
        {None: [[], {}, ()]}, {"": {"a": {"b": {}}}},
        ["é \x00\x1f\"\\", "\ud800", {"ключ": "значение"}, [1, True, 2.5, None]],
        [10 ** 120, -(10 ** 101), 0, -1],
        (("nested", ("tuple",)),),
        "top-level string", 7, None, [], {},
    ]
    for doc in docs:
        assert _report_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [Fraction(1, 3), {"a": [1, Fraction(2, 3)]}, {(1, 2): 0},
                                 {"a": 1, 2: "b"}, {None: 1, "a": 2}])
def test_report_text_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as ours:
        _report_text(doc)
    assert str(ours.value) == str(theirs.value)
