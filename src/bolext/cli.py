"""Command-line interface.

Exit codes: 0 = the computation succeeded / the property holds, 1 = the
property fails (invalid structure, inequivalent objects, non-inducible pair,
inexact sequence), 2 = usage, parse, or enumeration-bound errors, and a
failed internal consistency check (no verdict is given).  Reports are
deterministic byte-for-byte for identical inputs and options.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import prod

import numpy as np

from . import documents as docs
from .bol import enumerate_automorphisms, enumerate_bol_algebras, validate_bol
from .cohomology import cohomology23
from .core import DEFAULT_ENUMERATION_BOUND, Decision, Status, Variant
from .errors import (InternalConsistencyError, ParseError,
                     UnsupportedEnumerationError, UsageError)
from .exactlin import Matrix, PrimeField, RATIONALS, enumerate_vectors
from .extensions import (as_extension, candidate_rows, canonical_section, classify_rows,
                         extensions_equivalent, extract_cocycle, make_section,
                         validate_extension)
from .nonabelian import (cocycles_equivalent_via, solve_equivalence,
                         validate_nab_full)
from .representation import semidirect_product, validate_representation
from .wells import (AutPair, inducible_via, lift_automorphism, solve_inducibility,
                    verify_wells_exactness, wells_map)


def _print_report(kind, report, field):
    print(f"{kind}: {'valid' if report.valid else 'invalid'}")
    for v in report.violations:
        print("violation:", v.describe(lambda x: str(field.format_scalar(x))))
    return 0 if report.valid else 1


def _parse_field(token):
    if token in ("Q", "q"):
        return RATIONALS
    try:
        return PrimeField(int(token))
    except ValueError as exc:
        raise UsageError(f"field must be Q or a prime, got {token!r}") from exc


def _parse_map_spec(spec, field, rows, cols):
    """Inline map specs: 'id', 'diag(a,b,...)', a bare scalar (scales the
    identity), a JSON matrix literal, or a JSON file path.  A spec that is
    neither a scalar nor an existing path fails with the scalar's error."""
    spec = spec.strip()
    if spec == "id":
        if rows != cols:
            raise UsageError("'id' needs a square shape")
        return Matrix.identity(field, rows)
    if spec.startswith("diag(") and spec.endswith(")"):
        parts = [t.strip() for t in spec[5:-1].split(",")]
        if len(parts) != rows or rows != cols:
            raise UsageError(f"diag(...) needs {rows} entries")
        entries = [[_parse_scalar(field, parts[i]) if i == j
                    else field.zero for j in range(cols)] for i in range(rows)]
        return Matrix(field, entries)
    if spec.startswith("["):
        try:
            doc = json.loads(spec)
        except ValueError as exc:  # not JSON, or an integer too long to convert
            raise UsageError(f"invalid JSON: {exc}") from exc
        return docs.matrix_from_doc(field, doc, rows, cols, "<inline>", "$")
    try:
        scalar = _parse_scalar(field, spec)
    except UsageError:
        if not os.path.exists(spec):
            raise
        return docs.matrix_from_doc(field, docs.read_json(spec), rows, cols, spec, "$")
    if rows != cols:
        raise UsageError("a scalar spec needs a square shape")
    return Matrix.identity(field, rows).scale(scalar)


def _parse_scalar(field, text):
    try:
        return field.parse_scalar(text if not field.is_prime_field else int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad scalar {text!r} over {field}: {exc}") from exc


def _require_options(args, *names):
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"--kind {args.kind} needs {' and '.join(missing)}")


def _field_and_dim(args):
    _require_options(args, "field", "dim")
    if args.dim < 0:
        raise UsageError(f"--dim must be nonnegative, got {args.dim}")
    return _parse_field(args.field)


def _load_phi(args, field, m, n):
    if args.phi is None:
        return None
    return _parse_map_spec(args.phi, field, m, n)


def _section_for(args, ext):
    if getattr(args, "section", None):
        mat = _parse_map_spec(args.section, ext.field, ext.total.dim, ext.n)
        return make_section(ext, mat)
    return canonical_section(ext)


def _pair_for(args, ext):
    alpha = _parse_map_spec(args.alpha, ext.field, ext.n, ext.n)
    beta = _parse_map_spec(args.beta, ext.field, ext.m, ext.m)
    return AutPair(alpha, beta)


def _checked_map(rep):
    """The report on a given map as a decision: found, or none with the
    failing tags."""
    return Decision(Status.FOUND) if rep.valid else Decision(
        Status.NONE, reason=", ".join(rep.tags()))


def _decision_exit(dec, found_msg, none_msg, witness_label="witness"):
    if dec.status is Status.FOUND:
        print(found_msg)
        if isinstance(dec.witness, Matrix):
            print(f"{witness_label}:", json.dumps(docs.matrix_to_doc(dec.witness)))
        return 0
    if dec.status is Status.NONE:
        print(f"{none_msg}: {dec.reason}" if dec.reason else none_msg)
        return 1
    print(f"undecided: {dec.reason}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_validate(args):
    a = docs.parse_document(args.algebra, "algebra")
    return _print_report("algebra", validate_bol(a), a.field)


def _cmd_validate_rep(args):
    a = docs.parse_document(args.algebra, "algebra")
    r = docs.parse_document(args.rep, "representation")
    return _print_report("representation", validate_representation(a, r), a.field)


def _cmd_semidirect(args):
    a = docs.parse_document(args.algebra, "algebra")
    r = docs.parse_document(args.rep, "representation")
    print(docs.canonical_json(docs.algebra_to_doc(semidirect_product(a, r))), end="")
    return 0


def _cmd_cohomology(args):
    a = docs.parse_document(args.algebra, "algebra")
    r = docs.parse_document(args.rep, "representation")
    res = cohomology23(a, r, args.variant)
    print(f"variant: {args.variant.value}")
    print(f"z={res.z_dim} b={res.b_dim} h={res.h_dim}")
    if args.representatives:
        for k, (nu, om) in enumerate(res.representatives):
            print(f"representative {k}:",
                  json.dumps(docs.cochain_pair_to_doc(nu, om)))
    return 0


def _cmd_nab_validate(args):
    c = docs.parse_document(args.cocycle, "nab-cocycle")
    rep = validate_nab_full(c, args.variant)
    print(f"variant: {args.variant.value}")
    return _print_report("cocycle", rep, c.field)


def _cmd_build_extension(args):
    c = docs.parse_document(args.cocycle, "nab-cocycle")
    ext = as_extension(c)
    print(docs.canonical_json(docs.extension_to_doc(ext)), end="")
    return 0


def _cmd_extract_cocycle(args):
    e = docs.parse_document(args.extension, "extension")
    rep = validate_extension(e)
    if not rep.valid:
        raise UsageError(f"extension invalid: {', '.join(rep.tags())}")
    s = _section_for(args, e)
    c = extract_cocycle(e, s)
    print(docs.canonical_json(docs.nab_to_doc(c)), end="")
    return 0


def _cmd_equiv_cocycles(args):
    c1 = docs.parse_document(args.c1, "nab-cocycle")
    c2 = docs.parse_document(args.c2, "nab-cocycle")
    if args.phi is not None:
        phi = _parse_map_spec(args.phi, c1.field, c1.m, c1.n)
        return _print_report("equivalence", cocycles_equivalent_via(c1, c2, phi),
                             c1.field)
    return _decision_exit(solve_equivalence(c1, c2, args.bound),
                          "equivalent", "not equivalent")


def _cmd_equiv_extensions(args):
    e1 = docs.parse_document(args.e1, "extension")
    e2 = docs.parse_document(args.e2, "extension")
    return _decision_exit(extensions_equivalent(e1, e2, args.bound),
                          "equivalent", "not equivalent")


def _cmd_classify(args):
    base = docs.parse_document(args.base, "algebra")
    fiber = docs.parse_document(args.fiber, "algebra")
    actions = None
    if args.actions:
        r = docs.parse_document(args.actions, "representation")
        if r.algebra_dim != base.dim or r.module_dim != fiber.dim:
            raise UsageError("action document does not match base and fiber")
        actions = (r.mu, r.theta, r.dd)
    zero, index, valid = classify_rows(base, fiber, actions, args.bound, args.variant)
    print(f"valid-cocycles: {valid}")
    print(f"classes: {len(index)}")
    if not args.count_only:
        for at in range(0, len(index), _PRINTED_ROWS):
            sys.stdout.write(_representative_lines(
                at, *candidate_rows(zero, index[at:at + _PRINTED_ROWS])))
    return 0


# representatives `classify` rebuilds and writes at a time
_PRINTED_ROWS = 1 << 12


def _representative_lines(start, nu, om) -> str:
    """The lines `representative k: {"nu": nu[k - start], "omega": om[k -
    start]}` of stacked residue rows, each dict as `json.dumps` writes it:
    over GF(p) a cochain document is the nested list of its residues.  One
    template per cochain shape (`_row_template`) takes every row's values."""
    rows = len(nu)
    values = np.column_stack([np.arange(start, start + rows),
                              nu.reshape(rows, prod(nu.shape[1:])),
                              om.reshape(rows, prod(om.shape[1:]))])
    return _row_template(nu.shape[1:], om.shape[1:]) * rows % tuple(values.ravel().tolist())


@functools.cache
def _row_template(nu_shape: tuple, om_shape: tuple) -> str:
    """One line of `_representative_lines` with a %d for k and each entry."""
    # json.dumps writes only brackets, commas and spaces between the ints of
    # a nested list, so with every entry 0 each 0 marks one entry
    doc = json.dumps({"nu": np.zeros(nu_shape, int).tolist(),
                      "omega": np.zeros(om_shape, int).tolist()})
    return "representative %d: " + doc.replace("0", "%d") + "\n"


def _cmd_inducible(args):
    e = docs.parse_document(args.extension, "extension")
    pair = _pair_for(args, e)
    phi = _load_phi(args, e.field, e.m, e.n)
    dec = (solve_inducibility(e, pair, args.bound) if phi is None
           else _checked_map(inducible_via(e, _section_for(args, e), pair, phi)))
    return _decision_exit(dec, "inducible: yes", "not inducible", "phi")


def _cmd_lift(args):
    e = docs.parse_document(args.extension, "extension")
    pair = _pair_for(args, e)
    s = _section_for(args, e)
    phi = _load_phi(args, e.field, e.m, e.n)
    dec = (solve_inducibility(e, pair, args.bound) if phi is None
           else _checked_map(inducible_via(e, s, pair, phi)))
    if not dec.found:
        return _decision_exit(dec, "", "not inducible")
    gamma = lift_automorphism(e, s, pair, phi if phi is not None else dec.witness)
    print(docs.canonical_json(docs.matrix_to_doc(gamma)), end="")
    return 0


def _cmd_wells(args):
    e = docs.parse_document(args.extension, "extension")
    pair = _pair_for(args, e)
    report = wells_map(e, pair, args.bound)
    print(f"wells-class: {report.status}")
    if report.witness is not None:
        print("witness:", json.dumps(docs.matrix_to_doc(report.witness)))
    if report.status == "zero":
        return 0
    if report.status in ("nonzero", "incompatible"):
        return 1
    print(f"undecided: {report.reason}", file=sys.stderr)
    return 2


def _cmd_exactness(args):
    e = docs.parse_document(args.extension, "extension")
    report = verify_wells_exactness(e, args.bound)
    print(docs.canonical_json(report.as_dict()), end="")
    return 0 if report.all_verdicts else 1


def _cmd_enumerate(args):
    if args.kind == "algebras":
        field = _field_and_dim(args)
        if args.dim == 0:
            raise UsageError("--kind algebras needs --dim >= 1, got 0")
        count = 0
        for a in enumerate_bol_algebras(field, args.dim, args.tri_zero, args.bound):
            count += 1
            if not args.count_only:
                print(json.dumps(docs.algebra_to_doc(a)))
        print(f"count: {count}")
        return 0
    if args.kind == "automorphisms":
        _require_options(args, "algebra")
        a = docs.parse_document(args.algebra, "algebra")
        auts = enumerate_automorphisms(a, args.bound)
        if not args.count_only:
            for g in auts:
                print(json.dumps(docs.matrix_to_doc(g)))
        print(f"count: {len(auts)}")
        return 0
    if args.kind == "vectors":
        field = _field_and_dim(args)
        if field.is_prime_field and field.p ** args.dim > args.bound:
            raise UnsupportedEnumerationError(
                f"{field.p ** args.dim} vectors exceed the bound {args.bound}")
        count = 0
        for vec in enumerate_vectors(field, args.dim):
            count += 1
            if not args.count_only:
                print(json.dumps([field.format_scalar(c) for c in vec]))
        print(f"count: {count}")
        return 0
    raise UsageError(f"unknown enumeration kind {args.kind!r}")


# ---------------------------------------------------------------------------

# built once per process: parse_args keeps no state in the parser, and
# building it (gettext and terminal-size lookups) takes about as long as a
# short command
@functools.cache
def _build_parser():
    top = argparse.ArgumentParser(
        prog="bolext",
        description="Exact computations with Bol algebra structure constants: "
                    "validation, cohomology, extensions, inducibility.")
    top.add_argument("--variant", choices=[v.value for v in Variant],
                     default=Variant.CORRECTED.value,
                     help="identity set for the audited identities")
    top.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND,
                     help="cap on brute-force candidate counts")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the structure axioms")
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("validate-rep", help="check the module identities")
    p.add_argument("--algebra", required=True)
    p.add_argument("--rep", required=True)
    p.set_defaults(fn=_cmd_validate_rep)

    p = sub.add_parser("semidirect", help="emit the semidirect sum")
    p.add_argument("--algebra", required=True)
    p.add_argument("--rep", required=True)
    p.set_defaults(fn=_cmd_semidirect)

    p = sub.add_parser("cohomology", help="cocycle/coboundary/quotient dimensions")
    p.add_argument("--algebra", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--representatives", action="store_true")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("nab-validate", help="check the cocycle identity suite")
    p.add_argument("--cocycle", required=True)
    p.set_defaults(fn=_cmd_nab_validate)

    p = sub.add_parser("build-extension", help="glue a cocycle into an extension")
    p.add_argument("--cocycle", required=True)
    p.set_defaults(fn=_cmd_build_extension)

    p = sub.add_parser("extract-cocycle", help="read the cocycle off a section")
    p.add_argument("--extension", required=True)
    p.add_argument("--section")
    p.set_defaults(fn=_cmd_extract_cocycle)

    p = sub.add_parser("equiv-cocycles", help="decide cocycle equivalence")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument("--phi", help="check this map instead of searching")
    p.set_defaults(fn=_cmd_equiv_cocycles)

    p = sub.add_parser("equiv-extensions", help="decide extension equivalence")
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.set_defaults(fn=_cmd_equiv_extensions)

    p = sub.add_parser("classify", help="classes of cocycles with fixed actions")
    p.add_argument("--base", required=True)
    p.add_argument("--fiber", required=True)
    p.add_argument("--actions", help="representation document with mu/theta/D")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("inducible", help="decide inducibility of a pair")
    p.add_argument("--extension", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--phi")
    p.add_argument("--section")
    p.set_defaults(fn=_cmd_inducible)

    p = sub.add_parser("lift", help="assemble the covering automorphism")
    p.add_argument("--extension", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--phi")
    p.add_argument("--section")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("wells", help="class verdict of the acted-minus-original cocycle")
    p.add_argument("--extension", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=_cmd_wells)

    p = sub.add_parser("exactness", help="brute-force the full sequence")
    p.add_argument("--extension", required=True)
    p.set_defaults(fn=_cmd_exactness)

    p = sub.add_parser("enumerate", help="algebras, automorphisms, or vectors")
    p.add_argument("--kind", required=True,
                   choices=["algebras", "automorphisms", "vectors"])
    p.add_argument("--field", help="Q or a prime modulus")
    p.add_argument("--dim", type=int)
    p.add_argument("--tri-zero", action="store_true")
    p.add_argument("--algebra")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.variant = Variant(args.variant)
    try:
        return args.fn(args)
    except (ParseError, UsageError, UnsupportedEnumerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
