"""One golden corpus of CLI evidence.

Each entry of `GOLDEN` names one argv for `cli.dispatch`, run in
process, and pins sha256 over the argv, the exit code, stdout and
stderr.  An argv that reads a file carries the document: the digest
covers the document text in place of the temporary path, and the path
in any output reads "<doc>".  Three batch entries, recorded by earlier
one-off recorders and moved here with their argv lists and digests
unchanged, pin seeded `implicitize` and `s2e verify` runs.

Budget trips are left out: the corpus runs under the default step
budget whatever the environment says.  After a deliberate change to the
reports, re-record the table with

    PYTHONPATH=src python tests/test_evidence_corpus.py

and replace `GOLDEN` with what it prints, so the change shows as one
diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from stratabench.cli import dispatch

DOC = "<doc>"   # an argv entry that stands for the path of the entry's document

GLUE_BUILTINS = ("four-lines", "two-conics", "conic-two-lines", "cubic-line", "three-nodal")

# the (component sizes, genera) of the random configs of the gluing workload
GLUE_SHAPES = (
    ((2, 2), (1, 1)), ((3, 3, 2), (1, 1, 1)), ((2, 2, 2, 2), (0, 0, 0, 0)),
    ((4, 4), (0, 0)), ((4, 4, 2), (0, 0, 0)), ((8,), (1,)), ((6, 4, 2), (1, 1, 1)),
    ((6, 6), (0, 0)), ((6, 6), (1, 1)), ((7, 7), (0, 0)), ((7, 7), (1, 1)),
    ((4, 4, 4, 4), (0, 0, 0, 0)))

# bidouble.SPECIAL_POINTS, written out
SPECIAL_POINTS = {"Z1": "0:0:1", "Z1prime": "0:0:1", "torus": "1:0:0;0:1:0",
                  "bielliptic": "0:0:1;1:0:0", "Z4": "0:0:1"}

SELFTESTS = ("hilbert", "canring", "bidouble", "fibration", "glue", "implicitize",
             "s2e", "catalog")


def _glue_config(sizes, genera, seed: int) -> str:
    """A seeded marked config of the given shape, as the gluing workload draws one."""
    rng = random.Random(f"corpus:{sizes}/{genera}:{seed}")
    marks = [f"m{i}" for i in range(sum(sizes))]
    rng.shuffle(marks)
    comps, start = [], 0
    for n, g in zip(sizes, genera):
        comps.append({"genus": g, "marks": sorted(marks[start:start + n])})
        start += n
    rng.shuffle(marks)
    return json.dumps({"components": comps,
                       "matching": [marks[i:i + 2] for i in range(0, len(marks), 2)]})


def _poly_doc(names, weights, terms: Dict[Tuple[int, ...], int]) -> dict:
    return {"vars": list(names), "weights": list(weights),
            "terms": [{"c": str(c), "e": list(e)} for e, c in sorted(terms.items()) if c]}


def _cubic(rng: random.Random) -> Dict[Tuple[int, ...], int]:
    return {(i, j, 3 - i - j): rng.randint(-3, 3) for i in range(4) for j in range(4 - i)}


def _building_data(seed: int) -> str:
    rng = random.Random(f"corpus:bidouble:{seed}")
    line = {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): 3}
    return json.dumps({name: _poly_doc("xyz", (1, 1, 1), p)
                       for name, p in (("D0", line), ("D1", _cubic(rng)), ("D2", _cubic(rng)))})


def _canring_model(seed: int) -> str:
    rng = random.Random(f"corpus:canring:{seed}")
    deg2 = [(2, 0, 0), (0, 1, 0), (0, 0, 1)]
    deg6 = [(i, j, k) for i in range(7) for j in range(4) for k in range(4)
            if i + 2 * j + 2 * k == 6]
    return json.dumps({name: _poly_doc(("x", "y1", "y2"), (1, 2, 2),
                                       {e: rng.randint(-5, 5) for e in exps})
                       for name, exps in (("a1", deg2), ("a2", deg2),
                                          ("b1", deg6), ("b2", deg6))})


DIVISORS = json.dumps({"D0": [["line", 3], ["E", 1]],
                       "D1": [["L1", 1], ["L2", 2], ["E", 3]],
                       "D2": [["cubic", 1], ["L1", 1]]})


def _entries() -> Dict[str, Tuple[List[str], Optional[str]]]:
    """name -> (argv, the document that DOC in argv stands for, or None)."""
    runs: List[Tuple[List[str], Optional[str], Optional[str]]] = []   # (argv, doc, label)
    runs += [(["glue", "--config", name], None, None) for name in GLUE_BUILTINS]
    runs.append((["glue", "--min-nodes"], None, None))
    runs.append((["glue", "--config", DOC],
                 json.dumps({"components": [{"genus": 0, "marks": ["a", "b"]}],
                             "matching": "ab"}), "matching not a list"))
    runs += [(["glue", "--config", DOC], _glue_config(sizes, genera, 0),
              f"random {sizes} genus {genera}") for sizes, genera in GLUE_SHAPES]
    runs += [(["canring"], None, None), (["canring", "--fiber", "1:1:1"], None, None),
             (["canring", "--model", DOC, "--fiber=1:2:-1"], _canring_model(0),
              "random model"),
             (["canring", "--model", DOC], json.dumps({"b1": {}}), "model without a1")]
    runs += [(["bidouble", "--example", name, "--classify", points], None, None)
             for name, points in SPECIAL_POINTS.items()]
    runs += [(["bidouble", "--data", DOC, "--classify=2:1:0;1:2:1;-3:0:1"],
              _building_data(0), "random building data"),
             (["bidouble", "--normalize", DOC], DIVISORS, "divisor multiset")]
    runs += [(["hilbert", "--rr", "1,2,1"], None, None), (["fibration"], None, None),
             (["catalog"], None, None)]
    runs += [([sub, "--selftest"], None, None) for sub in SELFTESTS]
    return {" ".join(f"<{label}>" if a == DOC else a for a in argv): (argv, doc)
            for argv, doc, label in runs}


def _run(argv: List[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dispatch(argv)
    return rc, out.getvalue(), err.getvalue()


def _digest(argv: List[str], doc: Optional[str]) -> str:
    if doc is None:
        rc, out, err = _run(argv)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "doc.json")
            Path(path).write_text(doc, encoding="utf-8")
            rc, out, err = _run([path if a == DOC else a for a in argv])
        out, err = out.replace(path, DOC), err.replace(path, DOC)
    shown = " ".join(doc if a == DOC else a for a in argv)
    return hashlib.sha256(f"{shown}\n{rc}\n{out}{err}".encode()).hexdigest()


# -- the batch digests, moved unchanged ---------------------------------------


def _implicitize_digest(seed=13, count=20):
    """sha256 over the exit code and stdout of `implicitize` for `count`
    seeded random pairs that `ParametrizationInput` accepts."""
    from stratabench.implicitize import ImplicitizeError, ParametrizationInput

    rng = random.Random(seed)
    h = hashlib.sha256()
    done = 0
    while done < count:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        try:
            ParametrizationInput(a, b)
        except ImplicitizeError:
            continue
        rc, out, err = _run(["implicitize", f"--a={a}", f"--b={b}"])
        h.update(f"{a} {b} {rc}\n{out}{err}".encode())
        done += 1
    return h.hexdigest()


def _s2e_digest(seed=14, count=12, symbolic=3, top=6, den=3, coprime=False):
    """sha256 over the exit code, stdout and stderr of `s2e verify` for
    `count` seeded numeric tuples and `symbolic` seeded `--symbolic` runs.

    Every rational has a numerator in [-top, top] and a denominator in
    [1, den]; with `coprime`, a and b have coprime denominators above 1,
    so lcm(den a, den b) is their product.
    """
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randint(-top, top), rng.randint(1, den))

    def params():
        while True:
            a, b = rational(), rational()
            if 4 * a ** 3 + 27 * b ** 2 != 0 and (
                    not coprime or gcd(a.denominator, b.denominator) == 1
                    < min(a.denominator, b.denominator)):
                return a, b

    argvs = []
    for _ in range(count):
        (a, b), alpha, beta = params(), 0, 0
        while alpha == 0 or beta == 0:
            alpha, beta = rational(), rational()
        argvs.append(["s2e", "verify", f"--a={a}", f"--b={b}",
                      f"--alpha={alpha}", f"--beta={beta}"])
    for _ in range(symbolic):
        a, b = params()
        argvs.append(["s2e", "verify", f"--a={a}", f"--b={b}", "--symbolic"])
    h = hashlib.sha256()
    for argv in argvs:
        rc, out, err = _run(argv)
        h.update(f"{' '.join(argv)} {rc}\n{out}{err}".encode())
    return h.hexdigest()


def _corpus() -> Dict[str, Callable[[], str]]:
    corpus: Dict[str, Callable[[], str]] = {
        name: (lambda argv=argv, doc=doc: _digest(argv, doc))
        for name, (argv, doc) in _entries().items()}
    # recorded before the Groebner kernel moved to packed monomials
    corpus["implicitize: 20 seeded pairs"] = _implicitize_digest
    # recorded before linalg moved to one integer elimination kernel
    corpus["s2e verify: 12 seeded tuples and 3 symbolic"] = _s2e_digest
    # recorded before the S2E kernel moved to integer rows: denominators up
    # to 60, coprime in a and b, so lcm(den a, den b)^6 reaches about 10^18
    corpus["s2e verify: 10 wide-denominator tuples and 2 symbolic"] = (
        lambda: _s2e_digest(seed=15, count=10, symbolic=2, top=60, den=60, coprime=True))
    return corpus


CORPUS = _corpus()

GOLDEN = {
    'bidouble --data <random building data> --classify=2:1:0;1:2:1;-3:0:1':
        'd0c17708fbbf439921e9b5eb33d50b379f282f0ad0e0051c8e391699fd8bf9ac',
    'bidouble --example Z1 --classify 0:0:1':
        '1f6db85c263f8f437785d29406647b71d497003db6677e3324328abb2a0db5c1',
    'bidouble --example Z1prime --classify 0:0:1':
        'e44f4f11790dec3e40ec572d015d44bfb349654935b460b11c5640d25679ce9b',
    'bidouble --example Z4 --classify 0:0:1':
        '9393d9bc82185fbea20b12e502e856d70572a97d3f974a728e69cd2026b46f7c',
    'bidouble --example bielliptic --classify 0:0:1;1:0:0':
        'cc886fefdf2610f291ab821a80414ba047a590574dc61b1e036556f23d0b647a',
    'bidouble --example torus --classify 1:0:0;0:1:0':
        '42b41842a8f1a753ab29d14f9c68d1bb629db93b031c68206eb27d6e277672d9',
    'bidouble --normalize <divisor multiset>':
        'fcec1db0307c60e02b08419abc09155980edd18830d5f16f8d800a19e5e3fc3e',
    'bidouble --selftest':
        '5055efff0a290972aece7b1724298825e6d7e27e6be49cec71761f4b84d939cc',
    'canring':
        '9444d2f1ae7bda2818208229f99904269a15baf69c712b2d4fdc7ec4ad61d723',
    'canring --fiber 1:1:1':
        'd330f2c06198232a720e3b88b1e6bfcd608442df8d6f5d997647aacce885a64a',
    'canring --model <model without a1>':
        '668e053f306d836015f1ce44e291b929e2f8b5cdf11e093b36af4b1b4669cb61',
    'canring --model <random model> --fiber=1:2:-1':
        'a9dc285841bbe181637e2af922e9c9a5559673369cd155936833299f6a7b5faf',
    'canring --selftest':
        '39e1e25fa728bda843abd9d817f627bebcd8ba2fee37924d3c846bfdf9674ce3',
    'catalog':
        '30ed495f43ed1007f307c4706bed048a49571434aec36ca6a002eab4f15a2ddc',
    'catalog --selftest':
        'e3bed5b2510012387a6ee0ab14ea198c64f68a6bd744a788a63ae682301a2136',
    'fibration':
        '557eecfd6d35fa3f05bf0fced21c98813dea39e80318e134e9b494344e1e2291',
    'fibration --selftest':
        '29e5b6953e33326998ef9c024f32348ff6b462454f85ca85b6f053dc5c9062ba',
    'glue --config <matching not a list>':
        'c0352da712e1f6e93c6237ba07b1bb5445dbeddfb10dbc3985007f598cbf9bbd',
    'glue --config <random (2, 2) genus (1, 1)>':
        '18c1148faa12058de72990719dbe222e64c753c81c6d2ccefc1cb5da22330d60',
    'glue --config <random (2, 2, 2, 2) genus (0, 0, 0, 0)>':
        '44b74e51aec99a3d06e677deb7827a55edc743c0a3f88200f041afa7d805d0b6',
    'glue --config <random (3, 3, 2) genus (1, 1, 1)>':
        '952cf91fd206d163ff682c7aea242476d931004da0ed391bb159e3ccdf5d2537',
    'glue --config <random (4, 4) genus (0, 0)>':
        '230695e3c2c99da1ca285ce755d04a706009cdc569ae147c7360368f57604645',
    'glue --config <random (4, 4, 2) genus (0, 0, 0)>':
        '7266adabeaef4361b7d1e5761971a395ff680f459eba2a647f817489bad63ce3',
    'glue --config <random (4, 4, 4, 4) genus (0, 0, 0, 0)>':
        '5424babd1b75e30adfae7c47448ab8ca17903c086f70f7d7a5cebd9b1092cc6b',
    'glue --config <random (6, 4, 2) genus (1, 1, 1)>':
        '6782796b62e229033672b14958411f1afe4c75b94ff7a5fea5e13e39b88ddef4',
    'glue --config <random (6, 6) genus (0, 0)>':
        'a7b16e1eddc286c025af82c763afcf52a7efad32db3be5d000e62a6d98131f79',
    'glue --config <random (6, 6) genus (1, 1)>':
        'fa2ec53e899b13ea8fdd950c3360970a0736576399c4949a8d89bc27ce78afa4',
    'glue --config <random (7, 7) genus (0, 0)>':
        '992dd48e18606d497a26ae5bc322f01944c4b01d4df8057a6627d1f6c466f7f5',
    'glue --config <random (7, 7) genus (1, 1)>':
        '77857f1f0647fee5f22b0805a47df75962df637e9078f75964db6e97e1db3f06',
    'glue --config <random (8,) genus (1,)>':
        'a6a57ad8481f770d08cf4a963541f6239c90bfdc79b522ab8009556d43763cbf',
    'glue --config conic-two-lines':
        'f996b87e816e06b961f01035301c624ceaef76c9ebd3868d2debdeb64f1b24f1',
    'glue --config cubic-line':
        '41e6367df14e565010fa8c12fff6009434d53dcac33be890005a4cdfb9c30c43',
    'glue --config four-lines':
        '6791c9ef4aa3dbce24141d22b0ece628dc4a1d630ac1b5f27277d6c4be81f8e4',
    'glue --config three-nodal':
        'ea57cb5c49db425557c0baeb0aed98c41b86e196cf62c2c5f73a99c09b87380a',
    'glue --config two-conics':
        '3e8922f1b91f36417f352de42599be793a2e3dcf9e5caa3f79d1599c50c75509',
    'glue --min-nodes':
        '498eeb28d1c61fa917baa91eb2f8b71ced59e8a65f2514327484b6cb4621172f',
    'glue --selftest':
        'be6eaf0f9cf6f8c6752544e7e9066a6e1f42423bf0b690a4e0feffaf87e1fb5b',
    'hilbert --rr 1,2,1':
        '52f04ff3deba99fd2cb452318e0cada242df4f521897967277de6a9f965cbaca',
    'hilbert --selftest':
        '525286af4244ffc2dbf409b208f9f29da8b13762dd561737a51b2383dbb14dc6',
    'implicitize --selftest':
        '8ba26a2464ad5e1eb07b49ad849c4a028db5263f81ae04e04d1434c3c19867dd',
    'implicitize: 20 seeded pairs':
        'd366d7aae81ee0f6d8139502aa84702e3499f1c9fd4ec954cebef98ad13e10cb',
    's2e --selftest':
        '47352b8312a607ddb015024562582b3b6df74cc1b9be9c62b3cea29ba859a442',
    's2e verify: 10 wide-denominator tuples and 2 symbolic':
        '0da6e0c15eb3c9b7dfab0597dfc3618f0599f53a4de2e13a87c784976b5496f1',
    's2e verify: 12 seeded tuples and 3 symbolic':
        'c1d7369ed76dd7ab1a74184e6877d7144c2ec27a76b331964e15875fcdf8c330',
}


def test_golden_names_the_whole_corpus():
    assert sorted(GOLDEN) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_evidence_matches_golden(name, monkeypatch):
    # any changed byte of a report, or of an error message, changes the digest
    monkeypatch.delenv("STRATABENCH_STEP_BUDGET", raising=False)
    assert CORPUS[name]() == GOLDEN[name]


if __name__ == "__main__":
    import os

    os.environ.pop("STRATABENCH_STEP_BUDGET", None)
    print("GOLDEN = {")
    for name in sorted(CORPUS):
        print(f"    {name!r}:\n        {CORPUS[name]()!r},")
    print("}")
