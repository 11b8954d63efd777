"""The four benchmark workloads: what each instance runs and how its verdict
is checked.

A workload hands out rounds.  A round is a fixed mix of instances, built from
the seed and the round number, and the harness always runs whole rounds, so
every run sees the same mix.  ``Instance.run`` is the timed program work,
from input objects to verdict; ``Instance.check`` compares that verdict with
the expectation the construction fixed, untimed, and returns None or the
reason for the failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

# calls go through the module attributes, which the tracer re-binds
from eqcartan import cartan, complexes, finite2, quantum

import gens
import oracles


@dataclass
class Instance:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    name: str
    why: str
    modules: tuple  # what the workload imports; setup_s times this import
    round: Callable  # (seed, round number, context) -> list of Instance
    # Seconds one round takes on the reference host, in the scaled time of
    # bench/clock.py.  A run does round(seconds / round_s) rounds: the work
    # is fixed by --seconds, so two commits measure the same instances and
    # no run's statistics jump because one more round happened to fit.
    round_s: float


def _ring(setup):
    return "Q" if setup.ring.kind == "Q" else f"F{setup.ring.modulus}"


def _decomposition(report):
    """(degree, free rank, torsion orders) for every degree with content,
    or None if any pivot was undetermined."""
    if any(e["undetermined"] for e in report.per_degree.values()):
        return None
    return sorted((k, e["free_rank"], sorted(e["torsion_orders"]))
                  for k, e in report.per_degree.items()
                  if e["free_rank"] or e["torsion_orders"])


# -- cartan-sparse ------------------------------------------------------------
#
# Why: the dense n^2 x n^2 Kronecker system in solve_iota and the dense
# d_eq products in identity_report dominate here (ROADMAP items 2 and 3);
# coefficients are monomials, so no truncation happens and the time is the
# algorithms' own, not the scalars'.

SPARSE_SIZES = (8, 12, 16)
SPARSE_IDENTITIES = ("d_eq squared zero", "lambda_eq anticommutes with d_eq",
                     "connection commutes with d_eq", "gamma_q leibniz")


def _cartan_sparse_pipeline(diff):
    data, obstruction = cartan.solve_iota(diff)
    if obstruction is not None:
        return {"obstruction": obstruction}
    report = cartan.identity_report(data)
    decomposition = complexes.u_module_decomposition(
        diff.as_operator(), analysis_order=diff.order, grading=diff.grading)
    connection = cartan.induced_connection(data, "gamma_q")
    return {"identities": report["identities"],
            "decomposition": decomposition, "connection": connection}


def _check_acyclic(out):
    if "obstruction" in out:
        return "an acyclic complex reported an iota obstruction"
    holds = {r["identity"]: r["holds"] for r in out["identities"]}
    # index homogeneity is not expected: random Z/2 data is not q-graded
    for name in SPARSE_IDENTITIES:
        if not holds.get(name):
            return f"identity {name!r} does not hold"
    if _decomposition(out["decomposition"]) != []:
        return "acyclic u-module is not zero"
    conn = out["connection"]
    if conn["classes"] or not conn["well_defined"]:
        return "classes survive on an acyclic complex"
    return None


def cartan_sparse_round(seed, r, ctx):
    """n = 8 and n = 12 over Q and over F5 in every round, then n = 16 in
    even rounds and a third n = 12 in odd ones; the rings of n = 8, the
    third n = 12 and n = 16 alternate.

    Four rounds give 4, 10 and 2 instances of n = 8, 12 and 16, so the
    median and the tail percentile (p37.5: ten samples must lie beyond it)
    both fall inside the n = 12 group, not on the edge between two sizes."""
    ring = (gens.SETUP_Q, gens.SETUP_F5)
    mix = [(8, ring[r % 2]), (12, gens.SETUP_Q), (12, gens.SETUP_F5),
           (16, ring[r // 2 % 2]) if r % 2 == 0 else (12, ring[r // 2 % 2])]
    out = []
    for k, (n, setup) in enumerate(mix):
        diff = gens.acyclic_differential(
            gens.seeded(seed, "cartan-sparse", r, k, n, _ring(setup)),
            setup, n)
        out.append(Instance(f"n{n}/{_ring(setup)}",
                            lambda diff=diff: _cartan_sparse_pipeline(diff),
                            _check_acyclic))
    return out


# -- classes-denseq -----------------------------------------------------------
#
# Why: the only workload with surviving classes and truncated series.  Every
# coefficient has several q-terms, so each pivot inverse is a 64-term
# truncated series (EQCARTAN_Q_ORDER = 64) and Fraction arithmetic inside
# their products dominates.  A monomial fast path that helps cartan-sparse
# must not cost time here.

# Shapes are fixed per slot so that every round costs about the same:
# (free generators, acyclic pairs, u-order), (free, torsion pairs, acyclic
# pairs, u-order) and (n of CP^n, u-order).
FREE_SHAPES = ((2, 2, 4),)
TORSION_SHAPES = ((2, 3, 3, 5), (1, 2, 2, 4), (1, 1, 2, 3))
CPN_SIZES = ((5, 5), (8, 4), (8, 4))


def _classes_pipeline(diff):
    data, obstruction = cartan.solve_iota(diff)
    if obstruction is not None:
        return {"obstruction": obstruction}
    return {"connection": cartan.induced_connection(data, "gamma_q")}


def _check_classes(expected_classes):
    def check(out):
        if "obstruction" in out:
            return "free plus acyclic summands reported an iota obstruction"
        conn = out["connection"]
        if not conn["well_defined"]:
            return "connection is not well defined"
        if len(conn["classes"]) != expected_classes:
            return (f"{len(conn['classes'])} classes, expected "
                    f"{expected_classes}")
        return None
    return check


def _torsion_pipeline(diff):
    report = complexes.u_module_decomposition(
        diff.as_operator(), analysis_order=diff.order, grading=diff.grading)
    C = complexes.GradedComplex(diff.setup, diff.grading, diff.basis,
                                diff.components[0])
    return {"decomposition": report,
            "les": complexes.les_consistency(C, report)}


def _check_torsion(expected):
    want = sorted((k, e["free_rank"], e["torsion_orders"])
                  for k, e in expected["per_degree"].items()
                  if e["free_rank"] or e["torsion_orders"])

    def check(out):
        got = _decomposition(out["decomposition"])
        if got != want:
            return f"decomposition {got}, expected {want}"
        if not out["les"]["balanced"]:
            return "long exact sequence does not balance"
        return None
    return check


def _cpn_pipeline(data, Q, order):
    return {"gamma_q": cartan.induced_connection(data, "gamma_q"),
            "gamma_u": cartan.induced_connection(data, "gamma_u"),
            "uq": quantum.uq_identity_check(Q, order=order)}


def _check_cpn(expected):
    def check(out):
        for op in ("gamma_q", "gamma_u"):
            conn = out[op]
            if not conn["well_defined"]:
                return f"{op} is not well defined"
            want = [[oracles.novikov_text(*row.get(c, (0, 0)))
                     for c in range(expected["classes"])]
                    for row in expected[op]]
            if conn["matrix"] != want:
                return f"{op} matrix differs from the closed form"
        if not out["uq"]["holds"]:
            return "uq identity does not hold"
        return None
    return check


def classes_denseq_round(seed, r, ctx):
    """One free-plus-acyclic complex, three torsion complexes, one CP^5 and
    two CP^8 lifts, each of a fixed shape; the seed draws the complexes'
    details.

    In cost order the round is torsion, CP^5, CP^8, free, so with six rounds
    (42 instances) the median falls inside the CP^5 group and the tail
    percentile (p76.2) inside the CP^8 group."""
    setup = gens.SETUP_Q
    rng = gens.seeded(seed, "classes-denseq", r)
    out = []
    for n_free, n_pairs, order in FREE_SHAPES:
        diff, _ = gens.normal_form(rng, setup, n_free, 0, n_pairs, order)
        out.append(Instance(f"free+acyclic/n{diff.n}",
                            lambda diff=diff: _classes_pipeline(diff),
                            _check_classes(n_free * order)))
    for shape in TORSION_SHAPES:
        diff, expected = gens.normal_form(rng, setup, *shape)
        out.append(Instance(f"torsion/n{diff.n}",
                            lambda diff=diff: _torsion_pipeline(diff),
                            _check_torsion(expected)))
    for n, order in CPN_SIZES:
        data, Q, expected = gens.cpn_lift(n, order)
        out.append(Instance(f"cp{n}/N{order}",
                            lambda data=data, Q=Q, order=order:
                            _cpn_pipeline(data, Q, order),
                            _check_cpn(expected)))
    return out


# -- f2-sweep -----------------------------------------------------------------
#
# Why: per-call overhead decides this workload.  Each DVR case is a 3x3
# matrix over F2[u]/u^3 that takes well under a millisecond, and each
# finite2 system is a handful of small products.  A change that adds
# per-call set-up (array conversion, cache lookups) to win on large matrices
# shows up here as a loss.  A run covers a seeded sample of the 28,812-case
# sweep, in rounds of SWEEP_PER_ROUND cases plus one finite2 system.

SWEEP_PER_ROUND = 100


def _sweep_order(seed):
    order = list(range(gens.SWEEP_SIZE))
    gens.seeded(seed, "sweep").shuffle(order)
    return order


def _check_sweep(D):
    def check(out):
        pivots, _verified = out
        free, r1, r2 = oracles.dvr_invariants(D, 3, 3)
        vals = [v for _, _, v in pivots]
        got = (3 - len(pivots), vals.count(1), vals.count(2))
        if got != (free, r1, r2):
            return f"case {D}: (free, u, u^2) = {got}, oracle {(free, r1, r2)}"
        return None
    return check


def _check_z2(out):
    relations, assembled = out
    if not relations["all_hold"]:
        return "a homotopy-built relation does not hold"
    if not assembled["all_hold"]:
        return "a truncated certificate does not hold"
    return None


def f2_sweep_round(seed, r, ctx):
    if ctx.get("sweep_seed") != seed:
        ctx["sweep_seed"], ctx["sweep"] = seed, _sweep_order(seed)
    order = ctx["sweep"]
    out = []
    for k in range(SWEEP_PER_ROUND):
        D = gens.sweep_case(order[(SWEEP_PER_ROUND * r + k) % len(order)])
        rows = gens.sweep_rows(D)
        out.append(Instance("dvr3x3",
                            lambda rows=rows: complexes.dvr_diagonalize(
                                rows, gens.SETUP_F2, 3),
                            _check_sweep(D)))
    Z = gens.z2_system(gens.seeded(seed, "finite2", r), 1 + r % 6)
    out.append(Instance(f"finite2/n{Z.n}",
                        lambda: (finite2.verify_relations(Z),
                                 finite2.assemble_and_check(Z)),
                        _check_z2))
    return out


# -- cli-docs -----------------------------------------------------------------
#
# Why: the only workload where the schema and cli modules and interpreter
# start-up dominate; without it they would go unmeasured.  Each instance is
# one eqcartan process, started only after the previous one has exited.
# ``cartan verify`` at n = 32 is left out: it adds no layer cartan-sparse
# does not already measure.

CLI_STUB = "import sys; from eqcartan.cli import main; sys.exit(main())"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class CliRunner:
    """Runs one eqcartan process at a time and keeps its peak RSS.

    Under tracing the process is started through clitrace.py, which wraps
    the same modules inside the child and writes its spans to a file."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_rss_kb = 0
        self.trace = False
        self.trace_files = []

    def __call__(self, argv):
        if self.trace:
            path = os.path.join(self.workdir,
                                f"cli-trace-{len(self.trace_files)}.json")
            self.trace_files.append(path)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "clitrace.py"),
                   path, *argv]
        else:
            cmd = [sys.executable, "-c", CLI_STUB, *argv]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env,
                                cwd=self.root)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out


def _flag(key):
    return lambda doc: doc[key] is True


def _betti(want):
    return lambda doc: {k: v["betti"]
                        for k, v in doc["degrees"].items()} == want


def _u_decomposed(torsion):
    """Free rank 0 everywhere, the given torsion orders per degree, and a
    balanced long exact sequence."""
    def check(doc):
        per = doc["decomposition"]["per_degree"]
        return (all(e["free_rank"] == 0 and e["undetermined"] == 0
                    for e in per.values())
                and {k: e["torsion_orders"] for k, e in per.items()
                     if e["torsion_orders"]} == torsion
                and doc["les_consistency"]["balanced"] is True)
    return check


def _obstruction(lam, d, p):
    """forbidden_summand_check: forbidden iff 2 d lam^2 is a unit, with the
    surviving coefficient 2 d lam^2 (mod p)."""
    coeff = 2 * d * lam * lam
    forbidden = lam != 0 if p is None else (d % p != 0 and lam % p != 0)
    want = str(coeff if p is None else coeff % p)

    def check(doc):
        return (doc["verdict"] == ("forbidden" if forbidden
                                   else "not_excluded")
                and doc["certificate"]["surviving_coefficient"] == want)
    return check


def _quasi_isos(doc):
    q = doc["quasi_isomorphisms"]
    return q["minus"]["quasi_isomorphism"] and q["plus"]["quasi_isomorphism"]


def _morse_weights(doc):
    return (doc["composition_matches"] and doc["kernel_vector_annihilated"]
            and doc["in_GL2Z"])


# (arguments, expected exit code, verdict check on the parsed report).  The
# fixture expectations follow from the documents: monotone_case and
# exact_case pair x -> y with a unit, so they are acyclic and solvable;
# dvr_case has d_0 = 0 and d_1 = u (x -> y), one u-torsion summand at the
# degree of y; the quantum, z2 and cone fixtures satisfy their axioms.
FIXTURE_COMMANDS = [
    *[(["validate", f], 0, _flag("valid"))
      for f in ("cone_case.json", "dvr_case.json", "exact_case.json",
                "mod2_case.json", "monotone_case.json", "quantum_cp1.json",
                "z2_case.json")],
    (["cohomology", "monotone_case.json"], 0, _betti({"0": 0, "1": 0})),
    (["cohomology", "dvr_case.json"], 0, _betti({"0": 1, "1": 1})),
    (["u-decompose", "dvr_case.json"], 0, _u_decomposed({"0": [1]})),
    (["u-decompose", "exact_case.json"], 0, _u_decomposed({})),
    (["cartan", "verify", "monotone_case.json"], 0, _flag("all_hold")),
    (["cartan", "solve-iota", "monotone_case.json"], 0, _flag("solved")),
    (["cartan", "solve-iota", "exact_case.json"], 0, _flag("solved")),
    (["cartan", "connection", "--which", "q", "monotone_case.json"], 0,
     _flag("well_defined")),
    (["cartan", "connection", "--which", "u", "monotone_case.json"], 0,
     _flag("well_defined")),
    (["quantum", "check", "quantum_cp1.json"], 0,
     lambda doc: doc["axioms_hold"] and doc["uq_identity"]["holds"]),
    (["finite2", "verify", "z2_case.json"], 0, _flag("all_hold")),
    (["finite2", "assemble", "z2_case.json"], 0, _flag("all_hold")),
    (["cone", "cone_case.json"], 0, _quasi_isos),
]
GLOBAL_COMMANDS = [
    (["--schema"], 0, lambda doc: "properties" in doc),
    (["quantum", "obstruction", "--lambda", "2", "--d", "3", "--ring", "Z"],
     0, _obstruction(2, 3, None)),
    (["quantum", "obstruction", "--lambda", "3", "--d", "4", "--ring", "F5"],
     0, _obstruction(3, 4, 5)),
    (["morse", "weights"], 0, _morse_weights),
    (["morse", "additivity", "--delta", "1e-2,1e-3"], 0,
     _flag("monotone_decreasing")),
]
# generated acyclic documents: every degree has betti 0, the u-module is
# zero, and an iota exists
GENERATED_COMMANDS = [
    (16, ["validate"], 0, _flag("valid")),
    (16, ["cohomology"], 0, lambda doc: all(
        v["betti"] == 0 for v in doc["degrees"].values())),
    (16, ["u-decompose"], 0, _u_decomposed({})),
    (16, ["cartan", "solve-iota"], 0, _flag("solved")),
    (32, ["validate"], 0, _flag("valid")),
    (32, ["cohomology"], 0, lambda doc: all(
        v["betti"] == 0 for v in doc["degrees"].values())),
    (32, ["u-decompose"], 0, _u_decomposed({})),
]


def _check_cli(code_want, verdict):
    def check(out):
        code, stdout = out
        if code != code_want:
            return f"exit code {code}, expected {code_want}"
        try:
            ok = verdict(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unexpected report: {exc!r}"
        return None if ok else "verdict differs from the expectation"
    return check


def cli_docs_round(seed, r, ctx):
    """Every command once, in a seeded order, with generated documents over
    Q in even rounds and over F5 in odd ones; a run of two rounds (64
    processes) sees both rings."""
    runner = ctx["cli"]
    fixtures = os.path.join(runner.root, "fixtures")
    docs = {}
    for n in (16, 32):
        setup = gens.SETUP_Q if r % 2 == 0 else gens.SETUP_F5
        diff = gens.acyclic_differential(
            gens.seeded(seed, "cli-docs", r, n), setup, n)
        path = os.path.join(runner.workdir, f"acyclic-n{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gens.differential_document(diff), fh)
        docs[n] = path
    commands = [(args[:-1] + [os.path.join(fixtures, args[-1])], code, v)
                for args, code, v in FIXTURE_COMMANDS]
    commands += GLOBAL_COMMANDS
    commands += [(args + [docs[n]], code, v)
                 for n, args, code, v in GENERATED_COMMANDS]
    gens.seeded(seed, "cli-order", r).shuffle(commands)
    return [Instance(" ".join(a if not a.endswith(".json")
                              else os.path.basename(a) for a in argv),
                     lambda argv=argv: runner(argv),
                     _check_cli(code, verdict))
            for argv, code, verdict in commands]


WORKLOADS = {w.name: w for w in (
    Workload("cartan-sparse",
             "acyclic sparse d_eq at n = 8, 12, 16: the dense Kronecker "
             "solve and dense products the roadmap replaces",
             ("eqcartan.cartan", "eqcartan.complexes"), cartan_sparse_round,
             4.5),
    Workload("classes-denseq",
             "surviving classes, torsion and CP^n with multi-term "
             "coefficients: truncated inverses and Fraction arithmetic",
             ("eqcartan.cartan", "eqcartan.complexes", "eqcartan.quantum"),
             classes_denseq_round, 3.0),
    Workload("f2-sweep",
             "thousands of tiny F2 DVR cases and finite2 systems: per-call "
             "overhead decides",
             ("eqcartan.complexes", "eqcartan.finite2"), f2_sweep_round,
             0.18),
    Workload("cli-docs",
             "the eqcartan CLI as a process on fixtures and generated "
             "documents: start-up, schema and serialization",
             ("eqcartan.cli",), cli_docs_round, 9.0),
)}
