import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stratabench.cli import dispatch

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
    # the message names the stage that tripped and the budget it spent
    assert out.stderr.startswith("error: buchberger: spent the step budget of 100;")


def test_step_budget_caps_rref_in_s2e_verify():
    import os
    env = dict(os.environ, STRATABENCH_STEP_BUDGET="20")
    out = subprocess.run(RUN + ["s2e", "verify", "--a", "2/3", "--b", "-5/7",
                                "--alpha", "1", "--beta", "1"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: rref: spent the step budget of 20;")


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

    monkeypatch.setattr(s2e, "s_generators", broken)
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


def test_negative_rational_option_values():
    out = run_cli("implicitize", "--a", "-9/4", "--b", "2")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.split("\n", 1)[1])
    assert doc["evidence"]["a"] == "-9/4"
    assert run_cli("implicitize", "--a", "-9/4", "--b", "-x").returncode == 2


def test_classify_needs_three_coordinates(capsys):
    for points in ("1:2", "1:2:3:4", "0:0:1;1:2"):
        assert dispatch(["bidouble", "--example", "Z1", "--classify", points]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --classify") and len(err.splitlines()) == 1


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
    assert out.stderr.startswith("error: gluing enumeration")
    assert len(out.stderr.splitlines()) == 1


def test_hilbert_over_budget_is_refused_up_front(capsys):
    # 3 series factors times 10^7 + 1 coefficients exceed the default budget
    import time

    start = time.perf_counter()
    assert dispatch(["hilbert", "--weights=1,1", "--relations=6", "--upto=10000000"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: hilbert series: 30000003 coefficient updates exceed the step "
                   "budget of 2000000; raise STRATABENCH_STEP_BUDGET if intended\n")


def test_hilbert_charges_the_step_budget(monkeypatch, capsys):
    # --upto=3 over weights 1,1 and relation 6 costs 3 * 4 = 12 updates
    argv = ["hilbert", "--weights=1,1", "--relations=6", "--upto=3"]
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "11")
    assert dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: hilbert series: 12 coefficient updates exceed the step "
                          "budget of 11;")
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
