"""Command-line surface.

Exit codes: 0 = all checks pass; 1 = a mathematical check verified false;
2 = malformed input; 3 = undetermined (truncation exhausted before a
decision); 4 = internal error (a defect of the program, never a verdict;
the traceback goes to stderr).  Reports go to stdout as deterministic JSON
(sorted keys, fixed indentation).  Each command imports the modules it
runs inside its own body, so a process loads nothing else: ``cartan``,
``quantum`` and ``finite2`` only for the commands that use them, ``morse``
only for the ``morse`` commands, and for ``--schema`` none of the
arithmetic (``novikov``, ``linalg``, ``complexes``).  No command loads a
third-party package, and ``traceback`` is loaded for exit 4 only.
``main`` reads a command's document once, after the q-order setting, into
``args.doc``.

Default truncation orders come from the environment, read here and in
``schema`` only (a library call takes its orders as arguments):
EQCARTAN_Q_ORDER for the q-order budget of truncated inverses when no
--q-order is given (default ``linalg.Q_ORDER``, 64; parsed once per
command, even under the flag) and EQCARTAN_U_ORDER for the u-analysis
order when neither ``u-decompose --order`` nor the document fixes one
(``schema.differential_family_from``, which parses the variable even when
unused).  These and the --q-order and --order flags take positive
integers; an empty value means unset, anything else is malformed input
(exit 2).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Optional

from . import schema as schema_mod
from .schema import DocumentError

PASS, FAIL, MALFORMED, UNDETERMINED, INTERNAL = 0, 1, 2, 3, 4


def _emit(report) -> None:
    """Print a report.  If stdout's reader is gone, fd 1 goes to the null
    device, so the exit flush cannot fail and the command's code stands."""
    try:
        sys.stdout.write(schema_mod.dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- commands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    blocks = {}

    def put(block, violations):
        blocks[block] = {"violations": violations, "valid": not violations}

    if "complex" in args.doc:
        from . import complexes as cx
        put("complex", cx.validate_complex(schema_mod.complex_from(args.doc)))
    if args.doc.keys() & {"d_family", "iota_family", "lambda_family"}:
        from . import complexes as cx
        # read as the cartan commands read them: malformed, exit 2
        diff = schema_mod.cartan_from(args.doc).diff
        d_eq = diff.as_operator()
        put("d_family", cx._witnesses(d_eq.compose(d_eq),
                                      identity="d_eq squared"))
        lam_doc = schema_mod.lambda_family_from(args.doc, diff)
        if lam_doc is not None:
            put("lambda_family", _lambda_mismatches(diff, lam_doc))
    if "quantum_ring" in args.doc:
        put("quantum_ring", schema_mod.quantum_from(args.doc).validate())
    if "z2_data" in args.doc:
        from . import finite2
        rep = finite2.verify_relations(schema_mod.z2_from(args.doc))
        put("z2_data", [f for r in rep["relations"] for f in r["failures"]])
    if "cone" in args.doc:
        from . import complexes as cx
        put("cone", cx._cone_defects(*schema_mod.cone_from(args.doc)))
    ok = all(b["valid"] for b in blocks.values())
    _emit({"document": args.document, "blocks": blocks, "valid": ok})
    return PASS if ok else FAIL


def _lambda_mismatches(diff, lam_doc):
    from . import cartan as cartan_mod
    derived = [op.entries for op in cartan_mod.lambda_components(diff, "cy")]
    out = []
    zero = diff.setup.zero()
    # a component that either side leaves out is zero
    for k, (stored, entries) in enumerate(
            itertools.zip_longest(derived, lam_doc, fillvalue={})):
        for t, s in sorted(stored.keys() | entries.keys()):
            want = stored.get((t, s), zero)
            got = entries.get((t, s), zero)
            if (want - got).has_terms():
                out.append({
                    "invariant": "lambda = dq(d)",
                    "component": k,
                    "entry": [diff.basis[t].name, diff.basis[s].name],
                    "declared": str(got),
                    "derived": str(want),
                })
    return out


def cmd_cohomology(args) -> int:
    from . import complexes as cx
    C = schema_mod.complex_from(args.doc)
    report = cx.cohomology_over_novikov_field(C, args.q_order)
    _emit(report)
    return PASS


def cmd_u_decompose(args) -> int:
    from . import complexes as cx
    diff = schema_mod.differential_family_from(args.doc, args.order)
    for k, d_k in enumerate(diff.components[1:], 1):
        cx._refuse_misplaced(d_k, diff.grading, f"d_{k}", "u-decompose")
    rep = cx.u_module_decomposition(
        diff.as_operator(), analysis_order=diff.order,
        grading=diff.grading, q_order=args.q_order)
    # (C, d_0) is the document's complex
    C = cx.GradedComplex(diff.setup, diff.grading, diff.basis,
                         diff.components[0])
    les = cx.les_consistency(C, rep, args.q_order)
    _emit({"decomposition": rep.as_json(), "les_consistency": les})
    return PASS if les["balanced"] else FAIL


def cmd_cartan_verify(args) -> int:
    from . import cartan as cartan_mod
    data = schema_mod.cartan_from(args.doc)
    report = cartan_mod.identity_report(data)
    lam_doc = schema_mod.lambda_family_from(args.doc, data.diff)
    if lam_doc is not None:
        mism = _lambda_mismatches(data.diff, lam_doc)
        report["lambda_family_cross_check"] = {
            "mismatches": mism, "holds": not mism}
        report["all_hold"] = report["all_hold"] and not mism
    _emit(report)
    return PASS if report["all_hold"] else FAIL


def _stored(op) -> list:
    """An operator's stored entries, by position, as target, source and
    value text."""
    return [{"target": op.target[t].name, "source": op.source[s].name,
             "value": str(v)} for (t, s), v in sorted(op.entries.items())]


def cmd_cartan_solve_iota(args) -> int:
    from . import cartan as cartan_mod
    diff = schema_mod.differential_family_from(args.doc)
    regime = args.regime or args.doc.get("iota_family", {}).get(
        "regime", "monotone")
    data, obstruction = cartan_mod.solve_iota(diff, regime,
                                              q_order=args.q_order)
    if obstruction is not None:
        _emit({"regime": regime, "solved": False,
               "obstruction": obstruction})
        return FAIL
    comps = [{"u_order": k, "entries": _stored(op)}
             for k, op in enumerate(data.iota)]
    _emit({"regime": regime, "solved": True, "iota_family": comps})
    return PASS


def cmd_cartan_connection(args) -> int:
    from . import cartan as cartan_mod
    if "iota_family" in args.doc:
        data = schema_mod.cartan_from(args.doc)
        if args.regime not in (None, data.regime):
            raise DocumentError(
                f"--regime {args.regime} contradicts the iota_family regime "
                f"{data.regime}: the same iota read in the other regime "
                "gives another connection")
    else:
        diff = schema_mod.differential_family_from(args.doc)
        data, obstruction = cartan_mod.solve_iota(
            diff, args.regime or "monotone", q_order=args.q_order)
        if obstruction is not None:
            _emit({"solved": False, "obstruction": obstruction})
            return FAIL
    which = "gamma_q" if args.which == "q" else "gamma_u"
    report = cartan_mod.induced_connection(data, which, args.q_order)
    _emit(report)
    return PASS if report["well_defined"] else FAIL


def cmd_quantum_check(args) -> int:
    from . import quantum as quantum_mod
    Q = schema_mod.quantum_from(args.doc)
    axioms = Q.validate()
    report = {"axiom_violations": axioms, "axioms_hold": not axioms}
    rep = quantum_mod.uq_identity_check(Q, order=args.order or 3)
    report["uq_identity"] = rep
    _emit(report)
    return PASS if not axioms and rep["holds"] else FAIL


def cmd_quantum_obstruction(args) -> int:
    from . import quantum as quantum_mod
    from .novikov import _ring_from_name
    # read as a document's coefficients; the check refuses all but Z, F_p
    ring = _ring_from_name(args.ring)
    report = quantum_mod.forbidden_summand_check(args.lam, args.d, ring.kind,
                                                 ring.modulus)
    _emit(report)
    return MALFORMED if report["verdict"] == "inapplicable" else PASS


def cmd_finite2_verify(args) -> int:
    from . import finite2
    Z = schema_mod.z2_from(args.doc)
    report = finite2.verify_relations(Z)
    _emit(report)
    return PASS if report["all_hold"] else FAIL


def cmd_finite2_assemble(args) -> int:
    from . import finite2
    Z = schema_mod.z2_from(args.doc)
    relations = finite2.verify_relations(Z)
    if not relations["all_hold"]:
        _emit({"relations": relations,
               "error": "relation failures; not assembling"})
        return FAIL
    report = finite2.assemble_and_check(Z)
    _emit(report)
    return PASS if report["all_hold"] else FAIL


def cmd_morse_alpha1(args) -> int:
    from . import morse
    report = morse.alpha1_winding(grid=args.grid)
    _emit(report)
    ok = report["abs_winding"] == 1 and report["residual"] < 0.01
    return PASS if ok else FAIL


def cmd_morse_additivity(args) -> int:
    from . import morse
    try:
        deltas = [float(x) for x in args.delta.split(",") if x]
    except ValueError as exc:
        raise DocumentError(f"bad delta list {args.delta!r}") from exc
    if not deltas:
        raise DocumentError("empty delta list")
    report = morse.additivity_report(deltas)
    _emit(report)
    if report["monotone_decreasing"] and report["finest_error"] < 1e-3:
        return PASS
    # false needs a witness: a defect beyond its own bound
    rows = report["rows"]
    witness = any(r["measured_defect"] > r["projection_bound"] for r in rows)
    return FAIL if witness else UNDETERMINED


def cmd_morse_weights(args) -> int:
    from . import morse
    report = morse.weight_matrix_facts()
    _emit(report)
    ok = (report["composition_matches"] and report["in_GL2Z"]
          and report["kernel_vector_annihilated"])
    return PASS if ok else FAIL


def cmd_cone(args) -> int:
    from . import complexes as cx
    cmap, minus, plus = schema_mod.cone_from(args.doc)
    result = cx.mapping_cone(cmap, minus, plus, args.q_order)
    cone = result["cone"]
    report = {
        "cone_generators": [{"name": g.name, "index": g.index}
                            for g in cone.basis],
        "cone_differential": _stored(cone.d),
        "quasi_isomorphisms": result["quasi_isomorphisms"],
    }
    _emit(report)
    return PASS


# -- wiring -------------------------------------------------------------------


def _order_flag(text: str) -> Optional[int]:
    """argparse type of the order flags: a usage error (exit 2) on a value
    that ``_order_setting`` rejects."""
    from .novikov import InputError
    try:
        return schema_mod._order_setting(text, "the order")
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqcartan",
        description="Exact-arithmetic workbench for Novikov-coefficient "
                    "equivariant complexes and connections.")
    p.add_argument("--schema", action="store_true",
                   help="print the document JSON schema and exit")
    sub = p.add_subparsers(dest="command")

    def add_doc(sp):
        sp.add_argument("document", help="path to a workbench JSON document")

    def add_qorder(sp):
        sp.add_argument("--q-order", type=_order_flag, default=None,
                        help="q-truncation budget (default from "
                             "EQCARTAN_Q_ORDER or 64)")

    sp = sub.add_parser("validate", help="schema + invariant validation")
    add_doc(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("cohomology",
                        help="Betti numbers over the Novikov field")
    add_doc(sp)
    add_qorder(sp)
    sp.set_defaults(fn=cmd_cohomology)

    sp = sub.add_parser("u-decompose",
                        help="free/torsion normal form over Lambda[[u]]")
    add_doc(sp)
    add_qorder(sp)
    sp.add_argument("--order", type=_order_flag, default=None,
                    help="u-analysis order, over the document's (else "
                         "EQCARTAN_U_ORDER, else K+2)")
    sp.set_defaults(fn=cmd_u_decompose)

    sp = sub.add_parser("cartan", help="Cartan calculus commands")
    csub = sp.add_subparsers(dest="subcommand", required=True)
    c1 = csub.add_parser("verify", help="identity self-test suite")
    add_doc(c1)
    c1.set_defaults(fn=cmd_cartan_verify)
    c2 = csub.add_parser("solve-iota",
                         help="order-by-order contraction solver")
    add_doc(c2)
    add_qorder(c2)
    c2.add_argument("--regime", choices=["monotone", "cy"], default=None)
    c2.set_defaults(fn=cmd_cartan_solve_iota)
    c3 = csub.add_parser("connection",
                         help="induced connection matrix on cohomology")
    add_doc(c3)
    add_qorder(c3)
    c3.add_argument("--which", choices=["q", "u"], required=True)
    c3.add_argument("--regime", choices=["monotone", "cy"], default=None,
                    help="regime of the iota solved when the document has "
                         "no iota_family (default monotone); with one, it "
                         "must name the family's regime")
    c3.set_defaults(fn=cmd_cartan_connection)

    sp = sub.add_parser("quantum", help="quantum connection commands")
    qsub = sp.add_subparsers(dest="subcommand", required=True)
    q1 = qsub.add_parser("check", help="ring axioms + bracket identity")
    add_doc(q1)
    q1.add_argument("--order", type=_order_flag, default=None,
                    help="u-order for sample expansions (default 3)")
    q1.set_defaults(fn=cmd_quantum_check)
    q2 = qsub.add_parser("obstruction",
                         help="forbidden-summand classification")
    q2.add_argument("--lambda", dest="lam", required=True,
                    help="torsion eigenvalue (exact rational or residue)")
    q2.add_argument("--d", type=int, required=True,
                    help="torsion exponent (>= 1)")
    q2.add_argument("--ring", default="Z",
                    help="Z or Fp (e.g. F5), named as in a document")
    q2.set_defaults(fn=cmd_quantum_obstruction)

    sp = sub.add_parser("finite2", help="characteristic-2 finite analogue")
    fsub = sp.add_subparsers(dest="subcommand", required=True)
    f1 = fsub.add_parser("verify", help="operator relation check")
    add_doc(f1)
    f1.set_defaults(fn=cmd_finite2_verify)
    f2 = fsub.add_parser("assemble",
                         help="assemble d_eq, Gamma_q mod h^3 and certify")
    add_doc(f2)
    f2.set_defaults(fn=cmd_finite2_assemble)

    sp = sub.add_parser("morse", help="projective-space flow numerics")
    msub = sp.add_subparsers(dest="subcommand", required=True)
    m1 = msub.add_parser("alpha1", help="winding of the transport circle map")
    m1.add_argument("--grid", type=int, default=64)
    m1.set_defaults(fn=cmd_morse_alpha1)
    m2 = msub.add_parser("additivity",
                         help="near-broken trajectory additivity")
    m2.add_argument("--delta", default="1e-2,1e-3,1e-4",
                    help="comma-separated breaking distances")
    m2.set_defaults(fn=cmd_morse_additivity)
    m3 = msub.add_parser("weights", help="exact integer weight facts")
    m3.set_defaults(fn=cmd_morse_weights)

    sp = sub.add_parser("cone", help="three-block mapping cone")
    add_doc(sp)
    add_qorder(sp)
    sp.set_defaults(fn=cmd_cone)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        _emit(schema_mod.SCHEMA)
        return PASS
    if not getattr(args, "fn", None):
        parser.print_help()
        return MALFORMED
    from .linalg import Q_ORDER, UndeterminedError
    from .novikov import InputError
    try:
        if hasattr(args, "q_order"):
            # EQCARTAN_Q_ORDER is parsed even under --q-order, so a
            # malformed value is malformed input whichever order rules
            env_q_order = schema_mod._order_setting(
                os.environ.get("EQCARTAN_Q_ORDER"), "EQCARTAN_Q_ORDER")
            args.q_order = args.q_order or env_q_order or Q_ORDER
        if hasattr(args, "document"):
            # after the q-order setting, so a bad setting is reported first
            args.doc = schema_mod.load_document(args.document)
        return args.fn(args)
    except (DocumentError, InputError) as exc:
        _emit({"error": str(exc), "kind": "malformed input"})
        return MALFORMED
    except UndeterminedError as exc:
        _emit({"error": str(exc), "kind": "undetermined at truncation"})
        return UNDETERMINED
    except Exception as exc:  # a defect: report it, never as a verdict
        import traceback
        traceback.print_exc(file=sys.stderr)
        _emit({"error": f"{type(exc).__name__}: {exc}",
               "kind": "internal error"})
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
