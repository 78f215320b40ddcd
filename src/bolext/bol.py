"""Bol algebras by structure constants: axiom validation, morphisms,
brute-force enumeration, and the shipped fixture family.

A structure is a skew bilinear product ``x*y`` plus a trilinear bracket
``[x,y,z]`` skew in its first two arguments, subject to five identities:
star-skew, bracket-skew, bracket-cyclic, mixed-product and
bracket-derivation.  Their formulas are the rows of `identities.BOL`, which
`validate_bol` reads.  Full tensors are stored; skewness is validated, never
assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from . import bruteforce, identities
from .core import DEFAULT_ENUMERATION_BOUND, DEFAULT_RESULT_BOUND, ValidationReport
from .errors import UnsupportedEnumerationError, UsageError
from .exactlin import Matrix, vec_combine, vec_is_zero, vec_support, zero_vec

__all__ = [
    "BolAlgebra", "evaluate_products", "validate_bol", "is_morphism",
    "enumerate_automorphisms", "enumerate_bol_algebras",
    "zero_algebra", "z1", "z2", "z3", "s2", "h3",
]


@dataclass(frozen=True)
class BolAlgebra:
    """Structure constants: bil[i][j][k] and tri[i][j][k][l] index the
    coefficient of e_k in e_i*e_j and of e_l in [e_i,e_j,e_k]."""

    field: object
    dim: int
    bil: tuple
    tri: tuple

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise UsageError("dimension must be a positive integer")
        if len(self.bil) != n or any(len(r) != n or any(len(v) != n for v in r)
                                     for r in self.bil):
            raise UsageError("bilinear tensor has wrong shape")
        if len(self.tri) != n or any(
                len(r) != n or any(len(c) != n or any(len(v) != n for v in c)
                                   for c in r) for r in self.tri):
            raise UsageError("trilinear tensor has wrong shape")

    # -- evaluation ----------------------------------------------------------
    @cached_property
    def _bil_support(self) -> tuple:
        """(i, j, vec_support(e_i*e_j)) for the basis products that are not
        zero."""
        return tuple((i, j, vec_support(v)) for i, row in enumerate(self.bil)
                     for j, v in enumerate(row) if not vec_is_zero(v))

    @cached_property
    def _tri_support(self) -> tuple:
        """(i, j, k, vec_support([e_i,e_j,e_k])) for the basis brackets that
        are not zero."""
        return tuple((i, j, k, vec_support(v)) for i, plane in enumerate(self.tri)
                     for j, row in enumerate(plane) for k, v in enumerate(row)
                     if not vec_is_zero(v))

    def star(self, x, y) -> tuple:
        n = self.dim
        if len(x) != n or len(y) != n:
            raise UsageError("element has wrong dimension")
        return vec_combine(self.field.zero, n,
                           ((x[i] * y[j], v) for i, j, v in self._bil_support))

    def bracket(self, x, y, z) -> tuple:
        n = self.dim
        if len(x) != n or len(y) != n or len(z) != n:
            raise UsageError("element has wrong dimension")
        return vec_combine(self.field.zero, n,
                           ((x[i] * y[j] * z[k], v) for i, j, k, v in self._tri_support))

    def is_abelian(self) -> bool:
        return not self._bil_support and not self._tri_support

    def conjugate(self, g: Matrix) -> "BolAlgebra":
        """Structure constants in the basis given by the columns of g."""
        ginv = g.inverse()
        if ginv is None:
            raise UsageError("basis change must be invertible")
        cols = [g.col(i) for i in range(self.dim)]
        n = self.dim

        def coords(v):  # most products are zero, and stay zero
            return v if vec_is_zero(v) else ginv.apply(v)

        bil = tuple(tuple(coords(self.star(cols[i], cols[j]))
                          for j in range(n)) for i in range(n))
        tri = tuple(tuple(tuple(coords(self.bracket(cols[i], cols[j], cols[k]))
                                for k in range(n)) for j in range(n)) for i in range(n))
        return BolAlgebra(self.field, n, bil, tri)


def evaluate_products(a: BolAlgebra, x, y, z=None) -> tuple:
    """x*y, or [x,y,z] when z is given."""
    return a.star(x, y) if z is None else a.bracket(x, y, z)


def validate_bol(a: BolAlgebra) -> ValidationReport:
    """Check all five axioms on every basis tuple."""
    return identities.report(identities.BOL, a.field, bil=a.bil, tri=a.tri)


def is_morphism(f: Matrix, a1: BolAlgebra, a2: BolAlgebra) -> bool:
    """f(x*y) = f(x)*f(y) and f([x,y,z]) = [f(x),f(y),f(z)] on all basis tuples."""
    if a1.field != a2.field or f.field != a1.field:
        raise UsageError("morphism check needs a common field")
    if f.cols != a1.dim or f.rows != a2.dim:
        raise UsageError("morphism matrix has wrong shape")
    cols = [f.col(i) for i in range(a1.dim)]
    n, zero = a1.dim, zero_vec(a2.field, a2.dim)
    # f maps a zero structure vector of the domain to zero
    image = {(i, j): f.apply(a1.bil[i][j]) for i, j, _ in a1._bil_support}
    for i in range(n):
        for j in range(n):
            if image.get((i, j), zero) != a2.star(cols[i], cols[j]):
                return False
    image = {(i, j, k): f.apply(a1.tri[i][j][k]) for i, j, k, _ in a1._tri_support}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if image.get((i, j, k), zero) != a2.bracket(cols[i], cols[j], cols[k]):
                    return False
    return True


def enumerate_automorphisms(a: BolAlgebra,
                            budget: int = DEFAULT_ENUMERATION_BOUND,
                            max_results: int = DEFAULT_RESULT_BOUND) -> list:
    """All invertible morphisms a -> a, in lexicographic candidate order."""
    arr = automorphism_int_arrays(a, budget)
    if arr.shape[0] > max_results:
        raise UnsupportedEnumerationError(
            f"{arr.shape[0]} automorphisms exceed the result bound {max_results}")
    return [int_matrix(a.field, g) for g in arr]


def automorphism_int_arrays(a: BolAlgebra, budget: int = DEFAULT_ENUMERATION_BOUND):
    """Automorphism matrices as a (k, n, n) integer array (prime fields)."""
    if not a.field.is_prime_field:
        raise UnsupportedEnumerationError("automorphism enumeration needs a finite field")
    return bruteforce.automorphism_arrays(identities.residues(a.bil),
                                          identities.residues(a.tri), a.field.p, budget)


def int_matrix(field, arr) -> Matrix:
    return Matrix(field, identities.scalars(field, arr))


def algebra_from_int_arrays(field, bil, tri) -> BolAlgebra:
    return BolAlgebra(field, bil.shape[0], identities.scalars(field, bil),
                      identities.scalars(field, tri))


def enumerate_bol_algebras(field, dim: int, tri_zero: bool = False,
                           budget: int = DEFAULT_ENUMERATION_BOUND) -> Iterator[BolAlgebra]:
    """All valid structures on field^dim, deduplicated by construction.

    Bounds: dim <= 2 for the full tensor space, dim <= 3 with tri_zero.
    """
    if not field.is_prime_field:
        raise UnsupportedEnumerationError("algebra enumeration needs a finite field")
    if (tri_zero and dim > 3) or (not tri_zero and dim > 2):
        raise UnsupportedEnumerationError(
            f"algebra enumeration supports dim <= {'3 with tri_zero' if tri_zero else '2'}")
    for bil, tri in bruteforce.enumerate_valid_tensors(dim, field.p, tri_zero, budget):
        yield algebra_from_int_arrays(field, bil, tri)


# ---------------------------------------------------------------------------
# fixture family

def zero_algebra(field, dim: int) -> BolAlgebra:
    z = zero_vec(field, dim)
    bil = tuple(tuple(z for _ in range(dim)) for _ in range(dim))
    tri = tuple(tuple(tuple(z for _ in range(dim)) for _ in range(dim)) for _ in range(dim))
    return BolAlgebra(field, dim, bil, tri)


def z1(field) -> BolAlgebra:
    return zero_algebra(field, 1)


def z2(field) -> BolAlgebra:
    return zero_algebra(field, 2)


def z3(field) -> BolAlgebra:
    return zero_algebra(field, 3)


def _with_bil_entry(a: BolAlgebra, i, j, vec) -> BolAlgebra:
    bil = [list(r) for r in a.bil]
    bil[i][j] = tuple(vec)
    bil[j][i] = tuple(-c for c in vec)
    return BolAlgebra(a.field, a.dim, tuple(tuple(r) for r in bil), a.tri)


def s2(field) -> BolAlgebra:
    """dim 2: e1*e2 = e1, trilinear zero."""
    e1 = (field.one, field.zero)
    return _with_bil_entry(zero_algebra(field, 2), 0, 1, e1)


def h3(field) -> BolAlgebra:
    """dim 3: e1*e2 = e3, everything else zero."""
    e3 = (field.zero, field.zero, field.one)
    return _with_bil_entry(zero_algebra(field, 3), 0, 1, e3)
