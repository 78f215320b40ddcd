"""JSON document formats and canonical serialization.

Kinds and shapes (scalars: rationals as "a/b" or "a" strings, residues as
integers in [0, p)):

  algebra        {"field": "Q" | {"p": 5}, "dim": n,
                  "bilinear": n*n*n nested arrays, "trilinear": n*n*n*n}
  representation {"field", "algebra_dim", "module_dim",
                  "mu": [n matrices], "theta": n*n matrices, "D": n*n matrices}
  nab-cocycle    {"base": algebra-or-path, "fiber": algebra-or-path,
                  "nu", "omega", "mu", "theta", "D"}
  extension      {"fiber", "total", "base", "i": matrix, "p": matrix}

A cocycle's {"nu": n*n columns, "omega": n*n*n columns} sits in a
nab-cocycle, and `cohomology --representatives` and `classify` print it.

Every tensor is a nested array of scalars, read by `_nested` and written by
`_to_doc` whatever its rank.  Shape and skewness invariants are validated
at load (`_skew` for bilinear, trilinear, nu, omega and D); a violation
raises ParseError naming the failing array, scalar or pair, such as
`nu[0][1]`.  Serialization is canonical: parse . serialize is the identity
on canonical files.
"""
from __future__ import annotations

import json
import os

from .bol import BolAlgebra
from .cohomology import Cochain2, Cochain3
from .errors import ParseError, UsageError
from .exactlin import Matrix, PrimeField, RATIONALS, negatives
from .extensions import Extension
from .nonabelian import NonAbelianCocycle
from .representation import ActionOps, Representation

__all__ = [
    "parse_document", "canonical_json",
    "algebra_from_doc", "algebra_to_doc", "representation_from_doc",
    "representation_to_doc", "cochain_pair_from_doc", "cochain_pair_to_doc",
    "nab_from_doc", "nab_to_doc", "extension_from_doc", "extension_to_doc",
    "matrix_from_doc", "matrix_to_doc",
]


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _fail(path, loc, msg):
    raise ParseError(path, loc, msg)


def _require(doc, path, what, keys):
    """Refuses doc unless it is an object holding every key."""
    if not isinstance(doc, dict):
        _fail(path, "$", f"{what} document must be an object")
    for key in keys:
        if key not in doc:
            _fail(path, "$", f"missing key {key!r}")


def _dimension(doc, key, path):
    """doc[key] as a positive integer; JSON true and false are refused,
    although bool is a subclass of int."""
    n = doc[key]
    if type(n) is not int or n < 1:
        _fail(path, key, "dimension must be a positive integer")
    return n


def _field_from_doc(doc, path, loc):
    if doc == "Q":
        return RATIONALS
    if isinstance(doc, dict) and set(doc) == {"p"} and type(doc["p"]) is int:
        try:
            return PrimeField(doc["p"])
        except UsageError as exc:
            _fail(path, loc, str(exc))
    _fail(path, loc, 'field must be "Q" or {"p": <prime>}')


def _field_to_doc(field):
    return "Q" if not field.is_prime_field else {"p": field.p}


def _nested(field, doc, shape, path, loc):
    """The scalars of a nested array of the given shape as nested tuples.
    Each level must be an array of its length; the location of a scalar is
    built only when that scalar fails to parse."""
    size, rest = shape[0], shape[1:]
    if not isinstance(doc, list) or len(doc) != size:
        _fail(path, loc, f"expected an array of {size} {'arrays' if rest else 'scalars'}")
    if rest:
        return tuple([_nested(field, sub, rest, path, f"{loc}[{k}]")
                      for k, sub in enumerate(doc)])
    parse, out = field.parse_scalar, []
    for t in doc:
        try:
            out.append(parse(t))
        except (ValueError, ZeroDivisionError) as exc:
            _fail(path, f"{loc}[{len(out)}]", str(exc))
    return tuple(out)


def _to_doc(field, t, rank):
    """The nested array of a rank-`rank` tuple of scalars."""
    if rank == 1:
        return list(map(field.format_scalar, t))
    return [_to_doc(field, s, rank - 1) for s in t]


def _skew(t, path, key, msg):
    """Refuses t unless t[i][j] = -t[j][i] for all i <= j; names the first
    pair that fails."""
    for i in range(len(t)):
        for j in range(i, len(t)):
            if not negatives(t[i][j], t[j][i]):
                _fail(path, f"{key}[{i}][{j}]", msg)


def matrix_from_doc(field, doc, rows, cols, path, loc) -> Matrix:
    return Matrix(field, _nested(field, doc, (rows, cols), path, loc), cols=cols)


def matrix_to_doc(mat: Matrix):
    return _to_doc(mat.field, mat.entries, 2)


# ---------------------------------------------------------------------------
# algebra

def algebra_from_doc(doc, path) -> BolAlgebra:
    _require(doc, path, "algebra", ("field", "dim", "bilinear", "trilinear"))
    field = _field_from_doc(doc["field"], path, "field")
    n = _dimension(doc, "dim", path)
    bil = _nested(field, doc["bilinear"], (n, n, n), path, "bilinear")
    tri = _nested(field, doc["trilinear"], (n, n, n, n), path, "trilinear")
    _skew(bil, path, "bilinear", "bilinear entries must be skew: b[i][j] = -b[j][i]")
    _skew(tri, path, "trilinear", "trilinear entries must be skew in the first two slots")
    return BolAlgebra(field, n, bil, tri)


def algebra_to_doc(a: BolAlgebra):
    return {
        "field": _field_to_doc(a.field),
        "dim": a.dim,
        "bilinear": _to_doc(a.field, a.bil, 3),
        "trilinear": _to_doc(a.field, a.tri, 4),
    }


# ---------------------------------------------------------------------------
# representation

def representation_from_doc(doc, path) -> Representation:
    _require(doc, path, "representation",
             ("field", "algebra_dim", "module_dim", "mu", "theta", "D"))
    field = _field_from_doc(doc["field"], path, "field")
    n = _dimension(doc, "algebra_dim", path)
    m = _dimension(doc, "module_dim", path)
    mu, theta, dd = _actions_from_doc(doc, field, n, m, path)
    return Representation(field, n, m, mu, theta, dd)


def _actions_from_doc(doc, field, n, m, path):
    """(mu, theta, D) of a representation or cocycle document; D must be
    alternating."""
    mu = _nested(field, doc["mu"], (n, m, m), path, "mu")
    theta = _nested(field, doc["theta"], (n, n, m, m), path, "theta")
    dd = _nested(field, doc["D"], (n, n, m, m), path, "D")
    _skew(dd, path, "D", "D must be alternating")

    def matrices(grid):
        return tuple(tuple(Matrix(field, a, cols=m) for a in row) for row in grid)

    return tuple(Matrix(field, a, cols=m) for a in mu), matrices(theta), matrices(dd)


def _actions_to_doc(x: ActionOps):
    """mu, theta and D of a representation or cocycle."""
    entries = x.action_entries()
    return {
        "mu": _to_doc(x.field, entries["mu"], 3),
        "theta": _to_doc(x.field, entries["theta"], 4),
        "D": _to_doc(x.field, entries["dd"], 4),
    }


def representation_to_doc(r: Representation):
    return {
        "field": _field_to_doc(r.field),
        "algebra_dim": r.algebra_dim,
        "module_dim": r.module_dim,
        **_actions_to_doc(r),
    }


# ---------------------------------------------------------------------------
# cochain pair (needs ambient dims)

def cochain_pair_from_doc(doc, field, n, m, path):
    _require(doc, path, "cochain", ("nu", "omega"))
    nu = _nested(field, doc["nu"], (n, n, m), path, "nu")
    om = _nested(field, doc["omega"], (n, n, n, m), path, "omega")
    _skew(nu, path, "nu", "nu must be skew: nu[i][j] = -nu[j][i]")
    _skew(om, path, "omega", "omega must be skew in the first two slots")
    return Cochain2(n, m, field, nu), Cochain3(n, m, field, om)


def cochain_pair_to_doc(nu: Cochain2, om: Cochain3):
    return {
        "nu": _to_doc(nu.field, nu.grid, 3),
        "omega": _to_doc(om.field, om.grid, 4),
    }


# ---------------------------------------------------------------------------
# non-abelian cocycle

def _embedded_algebra(doc, path, key, base_dir):
    sub = doc[key]
    if isinstance(sub, str):
        return parse_document(os.path.join(base_dir, sub), "algebra")
    return algebra_from_doc(sub, f"{path}#{key}")


def nab_from_doc(doc, path, base_dir=".") -> NonAbelianCocycle:
    _require(doc, path, "cocycle", ("base", "fiber", "nu", "omega", "mu", "theta", "D"))
    base = _embedded_algebra(doc, path, "base", base_dir)
    fiber = _embedded_algebra(doc, path, "fiber", base_dir)
    if base.field != fiber.field:
        _fail(path, "fiber", "base and fiber must share a field")
    nu, om = cochain_pair_from_doc(doc, base.field, base.dim, fiber.dim, path)
    mu, theta, dd = _actions_from_doc(doc, base.field, base.dim, fiber.dim, path)
    return NonAbelianCocycle(base, fiber, nu, om, mu, theta, dd)


def nab_to_doc(c: NonAbelianCocycle):
    return {
        "base": algebra_to_doc(c.base),
        "fiber": algebra_to_doc(c.fiber),
        **cochain_pair_to_doc(c.nu, c.omega),
        **_actions_to_doc(c),
    }


# ---------------------------------------------------------------------------
# extension

def extension_from_doc(doc, path, base_dir=".") -> Extension:
    _require(doc, path, "extension", ("fiber", "total", "base", "i", "p"))
    fiber = _embedded_algebra(doc, path, "fiber", base_dir)
    total = _embedded_algebra(doc, path, "total", base_dir)
    base = _embedded_algebra(doc, path, "base", base_dir)
    if not (fiber.field == total.field == base.field):
        _fail(path, "$", "all three algebras must share a field")
    inj = matrix_from_doc(fiber.field, doc["i"], total.dim, fiber.dim, path, "i")
    proj = matrix_from_doc(fiber.field, doc["p"], base.dim, total.dim, path, "p")
    return Extension(fiber, total, base, inj, proj)


def extension_to_doc(e: Extension):
    return {
        "fiber": algebra_to_doc(e.fiber),
        "total": algebra_to_doc(e.total),
        "base": algebra_to_doc(e.base),
        "i": matrix_to_doc(e.inj),
        "p": matrix_to_doc(e.proj),
    }


# ---------------------------------------------------------------------------
# files

def read_json(path: str):
    """The JSON value of a file; a file that cannot be read or is not JSON
    (an integer of more digits than Python converts included) raises
    ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, "$", f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}", exc.msg) from exc
    except ValueError as exc:
        raise ParseError(path, "$", str(exc)) from exc


def parse_document(path: str, kind: str):
    """Load and validate a document of the given kind from a JSON file."""
    doc = read_json(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    if kind == "algebra":
        return algebra_from_doc(doc, path)
    if kind == "representation":
        return representation_from_doc(doc, path)
    if kind == "nab-cocycle":
        return nab_from_doc(doc, path, base_dir)
    if kind == "extension":
        return extension_from_doc(doc, path, base_dir)
    raise UsageError(f"unknown document kind {kind!r}")
