"""JSON document formats and canonical serialization.

Kinds and shapes (scalars: rationals as "a/b" or "a" strings, residues as
integers in [0, p)):

  algebra        {"field": "Q" | {"p": 5}, "dim": n,
                  "bilinear": n*n*n nested arrays, "trilinear": n*n*n*n}
  representation {"field", "algebra_dim", "module_dim",
                  "mu": [n matrices], "theta": n*n matrices, "D": n*n matrices}
  cochain-pair   {"nu": n*n columns, "omega": n*n*n columns}
  nab-cocycle    {"base": algebra-or-path, "fiber": algebra-or-path,
                  "nu", "omega", "mu", "theta", "D"}
  extension      {"fiber", "total", "base", "i": matrix, "p": matrix,
                  "section": matrix (optional)}
  aut-pair       {"alpha": matrix, "beta": matrix}

Shape and skewness invariants are validated at load; violations raise
ParseError with the offending field path.  Serialization is canonical:
parse . serialize is the identity on canonical files.
"""
from __future__ import annotations

import json
import os

from .bol import BolAlgebra
from .cohomology import Cochain2, Cochain3
from .errors import ParseError, UsageError
from .exactlin import Matrix, PrimeField, RATIONALS
from .extensions import Extension
from .nonabelian import NonAbelianCocycle
from .representation import Representation
from .wells import AutPair

__all__ = [
    "parse_document", "canonical_json",
    "algebra_from_doc", "algebra_to_doc", "representation_from_doc",
    "representation_to_doc", "cochain_pair_from_doc", "cochain_pair_to_doc",
    "nab_from_doc", "nab_to_doc", "extension_from_doc", "extension_to_doc",
    "aut_pair_from_doc", "aut_pair_to_doc", "matrix_from_doc", "matrix_to_doc",
]


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _fail(path, loc, msg):
    raise ParseError(path, loc, msg)


def _field_from_doc(doc, path, loc):
    if doc == "Q":
        return RATIONALS
    if isinstance(doc, dict) and set(doc) == {"p"} and isinstance(doc["p"], int):
        try:
            return PrimeField(doc["p"])
        except UsageError as exc:
            _fail(path, loc, str(exc))
    _fail(path, loc, 'field must be "Q" or {"p": <prime>}')


def _field_to_doc(field):
    return "Q" if not field.is_prime_field else {"p": field.p}


def _vector(field, doc, length, path, loc):
    if not isinstance(doc, list) or len(doc) != length:
        _fail(path, loc, f"expected an array of {length} scalars")
    parse, out = field.parse_scalar, []
    for t in doc:
        try:
            out.append(parse(t))
        except (ValueError, ZeroDivisionError) as exc:
            _fail(path, f"{loc}[{len(out)}]", str(exc))
    return tuple(out)


def matrix_from_doc(field, doc, rows, cols, path, loc) -> Matrix:
    if not isinstance(doc, list) or len(doc) != rows:
        _fail(path, loc, f"expected a {rows}x{cols} matrix")
    return Matrix(field, [
        _vector(field, row, cols, path, f"{loc}[{r}]") for r, row in enumerate(doc)],
        cols=cols)


def matrix_to_doc(mat: Matrix):
    f = mat.field.format_scalar
    return [[f(c) for c in row] for row in mat.entries]


def _vec_doc(field, vec):
    return [field.format_scalar(c) for c in vec]


# ---------------------------------------------------------------------------
# algebra

def _negatives(u, v) -> bool:
    """u = -v for two vectors of one field, adding only where one is nonzero."""
    return all(not a + b for a, b in zip(u, v) if a or b)


def algebra_from_doc(doc, path) -> BolAlgebra:
    if not isinstance(doc, dict):
        _fail(path, "$", "algebra document must be an object")
    for key in ("field", "dim", "bilinear", "trilinear"):
        if key not in doc:
            _fail(path, "$", f"missing key {key!r}")
    field = _field_from_doc(doc["field"], path, "field")
    n = doc["dim"]
    if not isinstance(n, int) or n < 1:
        _fail(path, "dim", "dimension must be a positive integer")
    bil_doc, tri_doc = doc["bilinear"], doc["trilinear"]
    if not isinstance(bil_doc, list) or len(bil_doc) != n:
        _fail(path, "bilinear", f"expected {n} planes")
    bil = []
    for i in range(n):
        if not isinstance(bil_doc[i], list) or len(bil_doc[i]) != n:
            _fail(path, f"bilinear[{i}]", f"expected {n} rows")
        bil.append(tuple(_vector(field, bil_doc[i][j], n, path,
                                 f"bilinear[{i}][{j}]") for j in range(n)))
    bil = tuple(bil)
    if not isinstance(tri_doc, list) or len(tri_doc) != n:
        _fail(path, "trilinear", f"expected {n} blocks")
    tri = []
    for i in range(n):
        if not isinstance(tri_doc[i], list) or len(tri_doc[i]) != n:
            _fail(path, f"trilinear[{i}]", f"expected {n} planes")
        plane = []
        for j in range(n):
            if not isinstance(tri_doc[i][j], list) or len(tri_doc[i][j]) != n:
                _fail(path, f"trilinear[{i}][{j}]", f"expected {n} rows")
            plane.append(tuple(
                _vector(field, tri_doc[i][j][k], n, path, f"trilinear[{i}][{j}][{k}]")
                for k in range(n)))
        tri.append(tuple(plane))
    a = BolAlgebra(field, n, bil, tuple(tri))
    for i in range(n):
        for j in range(i, n):
            if not _negatives(a.bil[i][j], a.bil[j][i]):
                _fail(path, f"bilinear[{i}][{j}]",
                      "bilinear entries must be skew: b[i][j] = -b[j][i]")
            for k in range(n):
                if not _negatives(a.tri[i][j][k], a.tri[j][i][k]):
                    _fail(path, f"trilinear[{i}][{j}][{k}]",
                          "trilinear entries must be skew in the first two slots")
    return a


def algebra_to_doc(a: BolAlgebra):
    return {
        "field": _field_to_doc(a.field),
        "dim": a.dim,
        "bilinear": [[_vec_doc(a.field, a.bil[i][j]) for j in range(a.dim)]
                     for i in range(a.dim)],
        "trilinear": [[[_vec_doc(a.field, a.tri[i][j][k]) for k in range(a.dim)]
                       for j in range(a.dim)] for i in range(a.dim)],
    }


# ---------------------------------------------------------------------------
# representation

def representation_from_doc(doc, path) -> Representation:
    if not isinstance(doc, dict):
        _fail(path, "$", "representation document must be an object")
    for key in ("field", "algebra_dim", "module_dim", "mu", "theta", "D"):
        if key not in doc:
            _fail(path, "$", f"missing key {key!r}")
    field = _field_from_doc(doc["field"], path, "field")
    n, m = doc["algebra_dim"], doc["module_dim"]
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        _fail(path, "algebra_dim", "dimensions must be positive integers")
    mu, theta, dd = _actions_from_doc(doc, field, n, m, path)
    return Representation(field, n, m, mu, theta, dd)


def _actions_from_doc(doc, field, n, m, path):
    """(mu, theta, D) of a representation or cocycle document; D must be
    alternating."""
    if not isinstance(doc["mu"], list) or len(doc["mu"]) != n:
        _fail(path, "mu", f"expected {n} matrices")
    mu = tuple(matrix_from_doc(field, doc["mu"][i], m, m, path, f"mu[{i}]")
               for i in range(n))

    def grid(key):
        g = doc[key]
        if not isinstance(g, list) or len(g) != n or any(
                not isinstance(r, list) or len(r) != n for r in g):
            _fail(path, key, f"expected an {n}x{n} grid of matrices")
        return tuple(tuple(matrix_from_doc(field, g[i][j], m, m, path,
                                           f"{key}[{i}][{j}]")
                           for j in range(n)) for i in range(n))

    theta, dd = grid("theta"), grid("D")
    for i in range(n):
        for j in range(i, n):
            if not (dd[i][j] + dd[j][i]).is_zero():
                _fail(path, f"D[{i}][{j}]", "D must be alternating")
    return mu, theta, dd


def representation_to_doc(r: Representation):
    return {
        "field": _field_to_doc(r.field),
        "algebra_dim": r.algebra_dim,
        "module_dim": r.module_dim,
        "mu": [matrix_to_doc(mat) for mat in r.mu],
        "theta": [[matrix_to_doc(r.theta[i][j]) for j in range(r.algebra_dim)]
                  for i in range(r.algebra_dim)],
        "D": [[matrix_to_doc(r.dd[i][j]) for j in range(r.algebra_dim)]
              for i in range(r.algebra_dim)],
    }


# ---------------------------------------------------------------------------
# cochain pair (needs ambient dims)

def cochain_pair_from_doc(doc, field, n, m, path):
    if not isinstance(doc, dict) or "nu" not in doc or "omega" not in doc:
        _fail(path, "$", 'cochain document needs "nu" and "omega"')
    nu_doc, om_doc = doc["nu"], doc["omega"]
    if not isinstance(nu_doc, list) or len(nu_doc) != n or any(
            not isinstance(r, list) or len(r) != n for r in nu_doc):
        _fail(path, "nu", f"expected an {n}x{n} grid of columns")
    nu = Cochain2(n, m, field, tuple(
        tuple(_vector(field, nu_doc[i][j], m, path, f"nu[{i}][{j}]")
              for j in range(n)) for i in range(n)))
    if not isinstance(om_doc, list) or len(om_doc) != n:
        _fail(path, "omega", f"expected {n} planes")
    planes = []
    for i in range(n):
        if not isinstance(om_doc[i], list) or len(om_doc[i]) != n:
            _fail(path, f"omega[{i}]", f"expected {n} rows")
        rows = []
        for j in range(n):
            if not isinstance(om_doc[i][j], list) or len(om_doc[i][j]) != n:
                _fail(path, f"omega[{i}][{j}]", f"expected {n} columns")
            rows.append(tuple(
                _vector(field, om_doc[i][j][k], m, path, f"omega[{i}][{j}][{k}]")
                for k in range(n)))
        planes.append(tuple(rows))
    om = Cochain3(n, m, field, tuple(planes))
    if not nu.is_skew():
        _fail(path, "nu", "nu must be skew: nu[i][j] = -nu[j][i]")
    if not om.is_skew():
        _fail(path, "omega", "omega must be skew in the first two slots")
    return nu, om


def cochain_pair_to_doc(nu: Cochain2, om: Cochain3):
    f = nu.field
    return {
        "nu": [[_vec_doc(f, nu.at(i, j)) for j in range(nu.n)] for i in range(nu.n)],
        "omega": [[[_vec_doc(f, om.at(i, j, k)) for k in range(om.n)]
                   for j in range(om.n)] for i in range(om.n)],
    }


# ---------------------------------------------------------------------------
# non-abelian cocycle

def _embedded_algebra(doc, path, key, base_dir):
    sub = doc[key]
    if isinstance(sub, str):
        ref = os.path.join(base_dir, sub)
        return load_algebra(ref)
    return algebra_from_doc(sub, f"{path}#{key}")


def nab_from_doc(doc, path, base_dir=".") -> NonAbelianCocycle:
    if not isinstance(doc, dict):
        _fail(path, "$", "cocycle document must be an object")
    for key in ("base", "fiber", "nu", "omega", "mu", "theta", "D"):
        if key not in doc:
            _fail(path, "$", f"missing key {key!r}")
    base = _embedded_algebra(doc, path, "base", base_dir)
    fiber = _embedded_algebra(doc, path, "fiber", base_dir)
    if base.field != fiber.field:
        _fail(path, "fiber", "base and fiber must share a field")
    n, m = base.dim, fiber.dim
    field = base.field
    nu, om = cochain_pair_from_doc({"nu": doc["nu"], "omega": doc["omega"]},
                                   field, n, m, path)
    mu, theta, dd = _actions_from_doc(doc, field, n, m, path)
    return NonAbelianCocycle(base, fiber, nu, om, mu, theta, dd)


def nab_to_doc(c: NonAbelianCocycle):
    doc = {
        "base": algebra_to_doc(c.base),
        "fiber": algebra_to_doc(c.fiber),
    }
    doc.update(cochain_pair_to_doc(c.nu, c.omega))
    doc["mu"] = [matrix_to_doc(mat) for mat in c.mu]
    doc["theta"] = [[matrix_to_doc(c.theta[i][j]) for j in range(c.n)]
                    for i in range(c.n)]
    doc["D"] = [[matrix_to_doc(c.dd[i][j]) for j in range(c.n)] for i in range(c.n)]
    return doc


# ---------------------------------------------------------------------------
# extension

def extension_from_doc(doc, path, base_dir=".") -> Extension:
    if not isinstance(doc, dict):
        _fail(path, "$", "extension document must be an object")
    for key in ("fiber", "total", "base", "i", "p"):
        if key not in doc:
            _fail(path, "$", f"missing key {key!r}")
    fiber = _embedded_algebra(doc, path, "fiber", base_dir)
    total = _embedded_algebra(doc, path, "total", base_dir)
    base = _embedded_algebra(doc, path, "base", base_dir)
    if not (fiber.field == total.field == base.field):
        _fail(path, "$", "all three algebras must share a field")
    inj = matrix_from_doc(fiber.field, doc["i"], total.dim, fiber.dim, path, "i")
    proj = matrix_from_doc(fiber.field, doc["p"], base.dim, total.dim, path, "p")
    return Extension(fiber, total, base, inj, proj)


def extension_to_doc(e: Extension, section: Matrix = None):
    doc = {
        "fiber": algebra_to_doc(e.fiber),
        "total": algebra_to_doc(e.total),
        "base": algebra_to_doc(e.base),
        "i": matrix_to_doc(e.inj),
        "p": matrix_to_doc(e.proj),
    }
    if section is not None:
        doc["section"] = matrix_to_doc(section)
    return doc


# ---------------------------------------------------------------------------
# automorphism pair

def aut_pair_from_doc(doc, field, n, m, path) -> AutPair:
    if not isinstance(doc, dict) or "alpha" not in doc or "beta" not in doc:
        _fail(path, "$", 'pair document needs "alpha" and "beta"')
    return AutPair(matrix_from_doc(field, doc["alpha"], n, n, path, "alpha"),
                   matrix_from_doc(field, doc["beta"], m, m, path, "beta"))


def aut_pair_to_doc(pair: AutPair):
    return {"alpha": matrix_to_doc(pair.alpha), "beta": matrix_to_doc(pair.beta)}


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


def parse_document(path: str, kind: str, **ctx):
    """Load and validate a document of the given kind from a JSON file."""
    doc = read_json(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    if kind == "algebra":
        return algebra_from_doc(doc, path)
    if kind == "representation":
        return representation_from_doc(doc, path)
    if kind == "cochain-pair":
        return cochain_pair_from_doc(doc, ctx["field"], ctx["n"], ctx["m"], path)
    if kind == "nab-cocycle":
        return nab_from_doc(doc, path, base_dir)
    if kind == "extension":
        return extension_from_doc(doc, path, base_dir)
    if kind == "aut-pair":
        return aut_pair_from_doc(doc, ctx["field"], ctx["n"], ctx["m"], path)
    raise UsageError(f"unknown document kind {kind!r}")


def load_algebra(path) -> BolAlgebra:
    return parse_document(path, "algebra")
