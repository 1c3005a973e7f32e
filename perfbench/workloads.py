"""Seeded job generators for the four benchmark workloads.

A job is one command line for ``stratabench.cli.dispatch`` plus the
input files it reads and a check of its report.  Job ``i`` of a
workload depends only on (workload, seed, i), so a run of any length
replays the same prefix of jobs.  Jobs come in cycles: each cycle holds
every job kind of the workload in a fixed proportion, in an order
shuffled by the seed, so the mix is the same at every seed and run
length while the inputs differ.

Rationals are always passed as ``--a=-9/4``: argparse reads a separate
``-9/4`` as an option and exits with code 2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import oracles

# Enumeration is factorial; no generated gluing config may build more
# candidate involutions than this (two 8-mark components build 51345).
CANDIDATE_CAP = 10_000


@dataclass
class Job:
    argv: List[str]
    check: Callable[[dict], bool]          # evidence -> agrees with the oracle
    files: Dict[str, str] = field(default_factory=dict)   # name -> JSON text

    def write_files(self, workdir: Path) -> None:
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _poly_json(names, weights, terms: Dict[Tuple[int, ...], Fraction]) -> dict:
    return {"vars": list(names), "weights": list(weights),
            "terms": [{"c": str(c), "e": list(e)} for e, c in sorted(terms.items()) if c]}


# -- implicit-quartics ------------------------------------------------------------


def _quartic_job(rng: random.Random, workdir: Path) -> Job:
    """(a, b) keeping the six marked points distinct, and not one of the
    pairs, such as (3/4, 3/2), whose map is 2:1 onto a conic: there the
    program exits 1 ("generator is not a quartic")."""
    while True:
        a, b = _rational(rng, -9, 9, 4), _rational(rng, -9, 9, 4)
        if a in (0, 1) or b in (0, 1) or a == b or a == b * b:
            continue
        expected = oracles.closed_form_coefficients(a, b)
        if not oracles.is_conic_square(expected):
            break
    samples = [oracles.parametrization_point(a, b, Fraction(u), Fraction(v))
               for u, v in ((2, 3), (-5, 7))]

    def check(ev: dict) -> bool:
        terms = {tuple(t["e"]): Fraction(t["c"]) for t in ev["quartic"]["terms"]}
        if not set(terms) <= set(oracles.QUARTIC_MONOMIALS):
            return False
        got = [terms.get(e, Fraction(0)) for e in oracles.QUARTIC_MONOMIALS]
        return (oracles.proportional(got, expected)
                and all(oracles.evaluate(terms, p) == 0 for p in samples))

    return Job(["implicitize", f"--a={a}", f"--b={b}"], check)


# -- s2e-tuples --------------------------------------------------------------------

S2E_WINNER = "t-system z=(t3,s4)"


def _s2e_params(rng: random.Random) -> Tuple[Fraction, Fraction]:
    while True:
        a, b = _rational(rng, -6, 6, 3), _rational(rng, -6, 6, 3)
        if 4 * a ** 3 + 27 * b ** 2 != 0:
            return a, b


def _s2e_job(rng: random.Random, workdir: Path) -> Job:
    a, b = _s2e_params(rng)
    alpha, beta = 0, 0
    while alpha == 0 or beta == 0:
        alpha, beta = _rational(rng, -6, 6, 3), _rational(rng, -6, 6, 3)

    def check(ev: dict) -> bool:
        return (ev["invariant_dims"] == {str(m): m * (m + 1) // 2 for m in range(1, 7)}
                and ev["conductor_dims"] == {str(m): m * (m - 3) // 2 + 1
                                             for m in range(2, 6)}
                and ev["antidiagonal_kernel_dim_3"] == 2
                and ev["identity1_ok"] and ev["identity2_ok"]
                and ev["generation_upto_6"]
                and ev["theorem"]["succeeding"] == S2E_WINNER)

    return Job(["s2e", "verify", f"--a={a}", f"--b={b}",
                f"--alpha={alpha}", f"--beta={beta}"], check)


def _s2e_symbolic_job(rng: random.Random, workdir: Path) -> Job:
    a, b = _s2e_params(rng)

    def check(ev: dict) -> bool:
        return (ev["identity1_ok"] and ev["identity2_ok"]
                and ev["theorem"]["succeeding"] == S2E_WINNER)

    return Job(["s2e", "verify", f"--a={a}", f"--b={b}", "--symbolic"], check)


# -- surface-models -----------------------------------------------------------------

CANONICAL_NAMES = ("x", "y1", "y2", "z1", "z2")
CANONICAL_WEIGHTS = (1, 2, 2, 3, 3)
DEG2 = [(2, 0, 0), (0, 1, 0), (0, 0, 1)]
DEG6 = [(i, j, k) for i in range(7) for j in range(4) for k in range(4) if i + 2 * j + 2 * k == 6]


def _canring_job(rng: random.Random, workdir: Path) -> Job:
    """A random model whose b1, b2 restricted to x = 0 have a nonzero
    resultant: that makes b1, b2 coprime and the model valid."""
    while True:
        coeffs = [{e: Fraction(rng.randint(-5, 5)) for e in exps}
                  for exps in (DEG2, DEG2, DEG6, DEG6)]
        a1, a2, b1, b2 = coeffs
        restricted = [[p.get((0, 3 - i, i), Fraction(0)) for i in range(4)] for p in (b1, b2)]
        if oracles.binary_resultant(*restricted) == 0:
            continue
        u0, u1, u2 = rng.randint(1, 3), rng.randint(-4, 4), rng.randint(-4, 4)
        pt = (Fraction(1), Fraction(u1, u0), Fraction(u2, u0))
        al1, al2, be1, be2 = (oracles.evaluate(p, pt) for p in coeffs)
        if al1 != 0:
            break
    # z2 = -(z1^2 + be1)/al1 turns the second relation into this quartic in z1
    quartic = [be1 * be1 + al1 * al1 * be2, al1 * al1 * al2, 2 * be1, Fraction(0), Fraction(1)]
    fiber = oracles.distinct_roots(quartic)
    autos = {(False, False): "trivial-in-given-coordinates", (True, True): "Z2xZ2"}.get(
        (not any(a1.values()), not any(a2.values())), "Z2")
    doc = {name: _poly_json(CANONICAL_NAMES, CANONICAL_WEIGHTS,
                            {e + (0, 0): c for e, c in p.items()})
           for name, p in zip(("a1", "a2", "b1", "b2"), coeffs)}

    def check(ev: dict) -> bool:
        v = ev["validation"]
        return (v["valid"] and v["coprime_ok"] and v["ambient_ok"]
                and ev["fiber_count"] == fiber and ev["automorphisms"] == autos)

    return Job(["canring", "--model", str(workdir / "model.json"),
                f"--fiber={u0}:{u1}:{u2}"], check, {"model.json": json.dumps(doc)})


def _random_cubic(rng: random.Random) -> oracles.Poly3:
    return {(i, j, 3 - i - j): Fraction(rng.randint(-3, 3))
            for i in range(4) for j in range(4 - i)}


def _bidouble_job(rng: random.Random, workdir: Path) -> Job:
    """A line and two cubics meeting in no common point, with one
    classification point on the line only and one smooth point on D1 only;
    both are smooth branch points."""
    while True:
        line = [rng.randint(-3, 3) for _ in range(3)]
        if not any(line):
            continue
        D0 = {e: Fraction(c) for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)}
        # force D1 through a random point P off the line
        P = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if not any(P) or oracles.evaluate(D0, P) == 0:
            continue
        D1, D2 = _random_cubic(rng), _random_cubic(rng)
        cube = next(i for i in range(3) if P[i] != 0)
        mono = tuple(3 if i == cube else 0 for i in range(3))
        D1[mono] = D1.get(mono, 0) - oracles.evaluate(D1, P) / P[cube] ** 3
        if oracles.evaluate(D2, P) == 0 or not any(oracles.gradient(D1, P)):
            continue
        L0, L1 = oracles.line_points(line)
        r1 = oracles.restrict_to_line(D1, L0, L1, 3)
        r2 = oracles.restrict_to_line(D2, L0, L1, 3)
        if not any(r1) or not any(r2) or oracles.binary_resultant(r1, r2) == 0:
            continue
        s, t = rng.randint(-3, 3), rng.randint(1, 3)
        Q = tuple(s * p + t * q for p, q in zip(L0, L1))
        if oracles.evaluate(D1, Q) != 0 and oracles.evaluate(D2, Q) != 0:
            break
    doc = {name: _poly_json(("x", "y", "z"), (1, 1, 1), p)
           for name, p in (("D0", D0), ("D1", D1), ("D2", D2))}
    points = ";".join(":".join(str(c) for c in pt) for pt in (Q, P))

    def check(ev: dict) -> bool:
        got = [(c["tag"], c["multiplicities"]) for c in ev["classification"]]
        return (ev["validation"]["valid"]
                and got == [("branch-smooth", [1, 0, 0]), ("branch-smooth", [0, 1, 0])])

    return Job(["bidouble", "--data", str(workdir / "data.json"), f"--classify={points}"],
               check, {"data.json": json.dumps(doc)})


HILBERT_CASES = (((1, 2, 2, 3, 3), (6, 6), "1,2,1"),   # the K^2 = 1, chi = 2 canonical ring
                 ((1, 1, 2, 3), (6,), None),            # degree-1 del Pezzo
                 ((1, 1, 3), (6,), None))               # its genus-2 restriction


def _hilbert_job(rng: random.Random, workdir: Path) -> Job:
    weights, relations, rr = rng.choice(HILBERT_CASES)
    upto = rng.randint(8, 24)
    expected = oracles.hilbert_series(weights, relations, upto)
    argv = ["hilbert", "--weights=" + ",".join(map(str, weights)),
            "--relations=" + ",".join(map(str, relations)), f"--upto={upto}"]
    if rr:
        argv.append(f"--rr={rr}")

    def check(ev: dict) -> bool:
        if ev["series"] != expected:
            return False
        # Riemann-Roch for K^2 = 1, chi = 2, pg = 1: h0(mK) = 2 + m(m-1)/2
        return not rr or ev["rr"] == [1] + [2 + m * (m - 1) // 2 for m in range(2, upto + 1)]

    return Job(argv, check)


def _fibration_job(rng: random.Random, workdir: Path) -> Job:
    def check(ev: dict) -> bool:
        return (ev["multiple_fibres"] == [[2, [2, 2, 2]]]
                and [r["type"] for r in ev["bielliptic"] if r["admissible"]] == [1, 3, 5, 7]
                and ev["hirzebruch"]["k"] == 10)

    return Job(["fibration"], check)


def _catalog_job(rng: random.Random, workdir: Path) -> Job:
    def check(ev: dict) -> bool:
        return ev["normal_strata_count"] == 7 and ev["moduli_dimension"] == 18

    return Job(["catalog"], check)


# -- gluing-configs ---------------------------------------------------------------

# (orbit count, chi triples (mu_bar, rho, mu1)) of the built-in configs:
# the acceptance-suite values, with the conic-two-lines and three-nodal
# orbit counts as the seed library reports them.
BUILTIN_GLUINGS = {
    "four-lines": (3, {(6, 0, 3)}),
    "two-conics": (3, {(4, 4, 1), (4, 0, 2)}),
    "conic-two-lines": (3, {(5, 2, 2)}),
    "cubic-line": (0, set()),
    "three-nodal": (1, {(3, 2, 1)}),
}


def _builtin_glue_job(name: str) -> Callable[[random.Random, Path], Job]:
    count, triples = BUILTIN_GLUINGS[name]

    def make(rng: random.Random, workdir: Path) -> Job:
        def check(ev: dict) -> bool:
            got = {(o["chi"]["mu_bar"], o["chi"]["rho"], o["chi"]["mu1"])
                   for o in ev["orbits"]}
            return (ev["orbit_count"] == count == len(ev["orbits"]) and got == triples
                    and all(oracles.check_gluing_orbit(ev["config"], o) for o in ev["orbits"]))

        return Job(["glue", "--config", name], check)

    return make


def _random_glue_job(sizes: Tuple[int, ...], genera: Tuple[int, ...]):
    if oracles.candidate_count(sizes, genera) > CANDIDATE_CAP:
        raise ValueError(f"gluing shape {sizes}/{genera} exceeds the candidate cap")

    def make(rng: random.Random, workdir: Path) -> Job:
        marks = [f"m{i}" for i in range(sum(sizes))]
        rng.shuffle(marks)
        comps, start = [], 0
        for n, g in zip(sizes, genera):
            comps.append({"genus": g, "marks": sorted(marks[start:start + n])})
            start += n
        rng.shuffle(marks)
        config = {"components": comps,
                  "matching": [marks[i:i + 2] for i in range(0, len(marks), 2)]}

        def check(ev: dict) -> bool:
            return (ev["orbit_count"] == len(ev["orbits"])
                    and all(o["orbit_size"] == 1 and oracles.check_gluing_orbit(config, o)
                            for o in ev["orbits"]))

        return Job(["glue", "--config", str(workdir / "config.json")], check,
                   {"config.json": json.dumps(config)})

    return make


# -- the workloads ----------------------------------------------------------------

Kind = Callable[[random.Random, Path], Job]

WORKLOADS: Dict[str, List[Kind]] = {
    "implicit-quartics": [_quartic_job],
    "s2e-tuples": [_s2e_job] * 4 + [_s2e_symbolic_job],
    # job_ms_p50 falls inside the bidouble block, job_ms_p90 inside canring
    "surface-models": ([_canring_job] * 3 + [_bidouble_job] * 5
                       + [_hilbert_job] * 2 + [_fibration_job, _catalog_job]),
    # By cost the cycle is 8 small jobs, then four-lines and two-conics twice
    # each, 4 larger configs, and 4 of about 300 ms: job_ms_p50 falls in the
    # middle of the built-in block, job_ms_p90 in the middle of the top one.
    "gluing-configs": (
        [_builtin_glue_job(name) for name in BUILTIN_GLUINGS]
        + [_builtin_glue_job("four-lines"), _builtin_glue_job("two-conics")]
        + [_random_glue_job(sizes, genera) for sizes, genera in (
            ((2, 2), (1, 1)), ((3, 3, 2), (1, 1, 1)), ((2, 2, 2, 2), (0, 0, 0, 0)),
            ((4, 4), (0, 0)), ((4, 4, 2), (0, 0, 0)),
            ((8,), (1,)), ((6, 4, 2), (1, 1, 1)), ((6, 6), (0, 0)), ((6, 6), (1, 1)),
            ((7, 7), (0, 0)), ((7, 7), (1, 1)), ((7, 7), (1, 1)),
            ((4, 4, 4, 4), (0, 0, 0, 0)))]),
}


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload])


def make_job(workload: str, seed: int, index: int, workdir: Path) -> Job:
    """Job `index` of the workload at this seed; writes nothing."""
    kinds = WORKLOADS[workload]
    cycle, pos = divmod(index, len(kinds))
    order = list(range(len(kinds)))
    random.Random(f"{workload}:{seed}:cycle:{cycle}").shuffle(order)
    rng = random.Random(f"{workload}:{seed}:job:{index}")
    return kinds[order[pos]](rng, workdir)
