"""Abelian (2,3)-cochains, cocycle identities, coboundaries, and the
cohomology of a module by exact linear algebra.

The cocycle identities (nu-skew, omega-skew, cocycle-cyclic, cocycle-star,
cocycle-bracket) are the rows of `identities.COCYCLE`, which `is_cocycle23`
reads.  One printed term of cocycle-star pairs nu with itself, which is not
type-correct; the CORRECTED variant (default) reads it as
mu(x1*x2) nu(y1,y2), the STRICT variant drops it.  Coboundaries are cocycles
under the corrected reading only.  `cocycle_constraint_matrix` assembles the
same identities as a linear system directly from the structure constants,
without evaluating any cochain, as an independent route.

Free coordinates of a (nu, omega) pair are nu[i][j] for i<j and omega[i][j][k]
for i<j, any k, each a module column; everything else follows by skewness.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import identities
from .bol import BolAlgebra
from .core import ValidationReport, Variant
from .errors import UsageError
from .exactlin import (Matrix, Subspace, basis_vec, vec_add, vec_is_zero,
                       vec_neg, vec_scale, vec_sub, zero_vec)
from .representation import Representation, _require_compatible

__all__ = [
    "Cochain2", "Cochain3", "CochainCoords", "CohomologyResult",
    "is_cocycle23", "coboundary", "cohomology23", "cocycles_cohomologous",
]


@dataclass(frozen=True)
class Cochain2:
    """Bilinear module-valued cochain: grid[i][j] is an m-tuple."""

    n: int
    m: int
    field: object
    grid: tuple

    def __post_init__(self):
        if len(self.grid) != self.n or any(
                len(r) != self.n or any(len(v) != self.m for v in r) for r in self.grid):
            raise UsageError("2-cochain grid has wrong shape")

    @classmethod
    def zero(cls, n, m, field):
        z = zero_vec(field, m)
        return cls(n, m, field, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @classmethod
    def from_pairs(cls, n, m, field, entries: dict):
        """Skew completion of {(i, j): column} with i < j."""
        grid = [[zero_vec(field, m) for _ in range(n)] for _ in range(n)]
        for (i, j), vec in entries.items():
            if not i < j:
                raise UsageError("free 2-cochain entries need i < j")
            grid[i][j] = tuple(vec)
            grid[j][i] = vec_neg(vec)
        return cls(n, m, field, tuple(tuple(r) for r in grid))

    def at(self, i, j) -> tuple:
        return self.grid[i][j]

    def eval(self, x, y) -> tuple:
        out = zero_vec(self.field, self.m)
        for i, ci in enumerate(x):
            if not ci:
                continue
            for j, cj in enumerate(y):
                if cj:
                    out = vec_add(out, vec_scale(ci * cj, self.grid[i][j]))
        return out


@dataclass(frozen=True)
class Cochain3:
    """Trilinear module-valued cochain: grid[i][j][k] is an m-tuple."""

    n: int
    m: int
    field: object
    grid: tuple

    def __post_init__(self):
        ok = len(self.grid) == self.n and all(
            len(r) == self.n and all(len(c) == self.n and all(len(v) == self.m for v in c)
                                     for c in r) for r in self.grid)
        if not ok:
            raise UsageError("3-cochain grid has wrong shape")

    @classmethod
    def zero(cls, n, m, field):
        z = zero_vec(field, m)
        return cls(n, m, field, tuple(tuple(tuple(z for _ in range(n))
                                            for _ in range(n)) for _ in range(n)))

    @classmethod
    def from_triples(cls, n, m, field, entries: dict):
        """Skew completion of {(i, j, k): column} with i < j."""
        grid = [[[zero_vec(field, m) for _ in range(n)] for _ in range(n)]
                for _ in range(n)]
        for (i, j, k), vec in entries.items():
            if not i < j:
                raise UsageError("free 3-cochain entries need i < j")
            grid[i][j][k] = tuple(vec)
            grid[j][i][k] = vec_neg(vec)
        return cls(n, m, field,
                   tuple(tuple(tuple(c) for c in r) for r in grid))

    def at(self, i, j, k) -> tuple:
        return self.grid[i][j][k]

    def eval(self, x, y, z) -> tuple:
        out = zero_vec(self.field, self.m)
        for i, ci in enumerate(x):
            if not ci:
                continue
            for j, cj in enumerate(y):
                if not cj:
                    continue
                c = ci * cj
                for k, ck in enumerate(z):
                    if ck:
                        out = vec_add(out, vec_scale(c * ck, self.grid[i][j][k]))
        return out


# ---------------------------------------------------------------------------
# maps B -> V by parameters

def _phi_from_params(field, n, m, vec) -> Matrix:
    """The m x n matrix of a map B -> V from its parameters in column-major
    order: vec[q*m + t] is coordinate t of phi(e_q).  Extra entries of vec
    are ignored."""
    return Matrix(field, [[vec[q * m + t] for q in range(n)] for t in range(m)])


def _unit_phi(field, n, m, k) -> Matrix:
    """The map whose k-th parameter is one and every other zero."""
    return _phi_from_params(field, n, m, basis_vec(field, n * m, k))


# ---------------------------------------------------------------------------
# free coordinates

@dataclass(frozen=True)
class CochainCoords:
    """Indexing of the free coordinates of a skew (nu, omega) pair."""

    n: int
    m: int
    field: object
    nu_slots: tuple = dc_field(init=False)
    omega_slots: tuple = dc_field(init=False)

    def __post_init__(self):
        pairs = tuple((i, j) for i in range(self.n) for j in range(i + 1, self.n))
        object.__setattr__(self, "nu_slots", pairs)
        object.__setattr__(self, "omega_slots",
                           tuple((i, j, k) for (i, j) in pairs for k in range(self.n)))

    @property
    def total(self) -> int:
        return self.m * (len(self.nu_slots) + len(self.omega_slots))

    def nu_offset(self, i, j) -> int:
        return self.m * self.nu_slots.index((i, j))

    def omega_offset(self, i, j, k) -> int:
        return self.m * (len(self.nu_slots) + self.omega_slots.index((i, j, k)))

    def encode(self, nu: Cochain2, om: Cochain3) -> tuple:
        out = []
        for (i, j) in self.nu_slots:
            out.extend(nu.at(i, j))
        for (i, j, k) in self.omega_slots:
            out.extend(om.at(i, j, k))
        return tuple(out)

    def decode(self, vec) -> tuple:
        if len(vec) != self.total:
            raise UsageError("coordinate vector has wrong length")
        it = iter(vec)  # one m-tuple per slot, nu's slots first
        nu = {slot: tuple(next(it) for _ in range(self.m)) for slot in self.nu_slots}
        om = {slot: tuple(next(it) for _ in range(self.m)) for slot in self.omega_slots}
        return (Cochain2.from_pairs(self.n, self.m, self.field, nu),
                Cochain3.from_triples(self.n, self.m, self.field, om))


# ---------------------------------------------------------------------------
# evaluator route

def _check_cochains(a, r, nu, om):
    if nu.n != a.dim or om.n != a.dim or nu.m != r.module_dim or om.m != r.module_dim \
            or nu.field != a.field or om.field != a.field:
        raise UsageError("cochain shape does not match the algebra and module")


def is_cocycle23(a: BolAlgebra, r: Representation, nu: Cochain2, om: Cochain3,
                 variant: Variant = Variant.CORRECTED) -> ValidationReport:
    """Check the skewness and the three cocycle identities on basis tuples."""
    _check_cochains(a, r, nu, om)
    return identities.report(identities.COCYCLE, a.field, variant, bil=a.bil,
                             tri=a.tri, nu=nu.grid, om=om.grid, **r.action_entries())


def coboundary(f: Matrix, chi, a: BolAlgebra, r: Representation):
    """(nu, omega) of the pair (f, chi):
    nu(x,y) = mu(x)f(y) - mu(y)f(x) + (D(x,y) - mu(x*y))(chi) - f(x*y),
    omega(x,y,z) = theta(y,z)f(x) - theta(x,z)f(y) + D(x,y)f(z) - f([x,y,z]).
    """
    n, m = a.dim, r.module_dim
    if f.rows != m or f.cols != n or len(chi) != m or f.field != a.field:
        raise UsageError("coboundary parameters have wrong shape")
    fe = [f.col(i) for i in range(n)]
    nu_grid = []
    for i in range(n):
        row = []
        for j in range(n):
            v = vec_sub(r.mu[i].apply(fe[j]), r.mu[j].apply(fe[i]))
            v = vec_add(v, (r.dd[i][j] - r.mu_op(a.bil[i][j])).apply(chi))
            v = vec_sub(v, f.apply(a.bil[i][j]))
            row.append(v)
        nu_grid.append(tuple(row))
    om_grid = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                v = vec_sub(r.theta[j][k].apply(fe[i]), r.theta[i][k].apply(fe[j]))
                v = vec_add(v, r.dd[i][j].apply(fe[k]))
                v = vec_sub(v, f.apply(a.tri[i][j][k]))
                row.append(v)
            plane.append(tuple(row))
        om_grid.append(tuple(plane))
    return (Cochain2(n, m, a.field, tuple(nu_grid)),
            Cochain3(n, m, a.field, tuple(om_grid)))


# ---------------------------------------------------------------------------
# direct coefficient assembly

class _RowBlock:
    """m rows of the constraint matrix for one identity instance."""

    def __init__(self, coords: CochainCoords):
        self.coords = coords
        z = coords.field.zero
        self.rows = [[z] * coords.total for _ in range(coords.m)]

    def _slot(self, offset, coeff, sign):
        m = self.coords.m
        if isinstance(coeff, Matrix):
            for t in range(m):
                for s in range(m):
                    c = coeff.entries[t][s]
                    if c:
                        self.rows[t][offset + s] = self.rows[t][offset + s] + sign * c
        else:
            for t in range(m):
                self.rows[t][offset + t] = self.rows[t][offset + t] + sign * coeff

    def add_nu(self, i, j, coeff, sign):
        if i == j:
            return
        one = self.coords.field.one
        if i < j:
            self._slot(self.coords.nu_offset(i, j), coeff, sign * one)
        else:
            self._slot(self.coords.nu_offset(j, i), coeff, -sign * one)

    def add_nu_vec(self, vec, j, coeff, sign, left=True):
        for q, c in enumerate(vec):
            if c:
                if left:
                    self.add_nu(q, j, coeff, sign * c)
                else:
                    self.add_nu(j, q, coeff, sign * c)

    def add_omega(self, i, j, k, coeff, sign):
        if i == j:
            return
        one = self.coords.field.one
        if i < j:
            self._slot(self.coords.omega_offset(i, j, k), coeff, sign * one)
        else:
            self._slot(self.coords.omega_offset(j, i, k), coeff, -sign * one)

    def nonzero(self):
        return [row for row in self.rows if any(row)]


def cocycle_constraint_matrix(a: BolAlgebra, r: Representation,
                              variant: Variant = Variant.CORRECTED) -> Matrix:
    """Rows of the exact linear system cutting out the cocycle pairs.

    Coefficients are assembled directly from the structure constants and the
    action matrices (this never evaluates a cochain, so the unit-cochain
    evaluation route stays an independent check on it).
    """
    coords = CochainCoords(a.dim, r.module_dim, a.field)
    n = a.dim
    one = a.field.one
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                blk = _RowBlock(coords)
                blk.add_omega(i, j, k, one, 1)
                blk.add_omega(j, k, i, one, 1)
                blk.add_omega(k, i, j, one, 1)
                rows.extend(blk.nonzero())
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    blk = _RowBlock(coords)
                    for q, c in enumerate(a.bil[k][l]):
                        if c:
                            blk.add_omega(i, j, q, c, 1)
                    blk.add_nu(k, l, r.dd[i][j], 1)
                    for q, c in enumerate(a.bil[i][j]):
                        if c:
                            blk.add_omega(k, l, q, c, -1)
                    blk.add_nu(i, j, r.dd[k][l], -1)
                    blk.add_nu_vec(a.tri[i][j][k], l, one, -1, left=True)
                    blk.add_nu_vec(a.tri[i][j][l], k, one, -1, left=False)
                    blk.add_omega(i, j, l, r.mu[k], -1)
                    blk.add_omega(i, j, k, r.mu[l], 1)
                    if variant is Variant.CORRECTED:
                        blk.add_nu(k, l, r.mu_op(a.bil[i][j]), -1)
                    blk.add_nu(i, j, r.mu_op(a.bil[k][l]), 1)
                    for q, cq in enumerate(a.bil[k][l]):
                        if cq:
                            for s, cs in enumerate(a.bil[i][j]):
                                if cs:
                                    blk.add_nu(q, s, one, cq * cs)
                    rows.extend(blk.nonzero())
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for w in range(n):
                        blk = _RowBlock(coords)
                        for q, c in enumerate(a.tri[k][l][w]):
                            if c:
                                blk.add_omega(i, j, q, c, 1)
                        blk.add_omega(k, l, w, r.dd[i][j], 1)
                        for q, c in enumerate(a.tri[i][j][k]):
                            if c:
                                blk.add_omega(q, l, w, c, -1)
                        for q, c in enumerate(a.tri[i][j][l]):
                            if c:
                                blk.add_omega(k, q, w, c, -1)
                        for q, c in enumerate(a.tri[i][j][w]):
                            if c:
                                blk.add_omega(k, l, q, c, -1)
                        blk.add_omega(i, j, w, r.dd[k][l], -1)
                        blk.add_omega(i, j, k, r.theta[l][w], -1)
                        blk.add_omega(i, j, l, r.theta[k][w], 1)
                        rows.extend(blk.nonzero())
    if not rows:
        return Matrix.zeros(a.field, 0, coords.total)
    return Matrix(a.field, rows)


def coboundary_matrix(a: BolAlgebra, r: Representation):
    """Columns are encoded coboundaries of the unit (f, chi) parameters."""
    coords = CochainCoords(a.dim, r.module_dim, a.field)
    n, m = a.dim, r.module_dim
    cols = []
    for k in range(n * m):
        nu, om = coboundary(_unit_phi(a.field, n, m, k), zero_vec(a.field, m), a, r)
        cols.append(coords.encode(nu, om))
    zf = Matrix.zeros(a.field, m, n)
    for t in range(m):
        nu, om = coboundary(zf, basis_vec(a.field, m, t), a, r)
        cols.append(coords.encode(nu, om))
    return Matrix.from_cols(a.field, cols, rows=coords.total), coords


@dataclass
class CohomologyResult:
    z_dim: int
    b_dim: int
    h_dim: int
    z_basis: Subspace
    b_basis: Subspace
    representatives: list
    variant: Variant


def cohomology23(a: BolAlgebra, r: Representation,
                 variant: Variant = Variant.CORRECTED) -> CohomologyResult:
    """Cocycle space, coboundary space and quotient dimension over the free
    coordinates, with deterministic quotient representatives."""
    _require_compatible(a, r)
    coords = CochainCoords(a.dim, r.module_dim, a.field)
    constraint = cocycle_constraint_matrix(a, r, variant)
    z_basis = constraint.kernel()
    cob, _ = coboundary_matrix(a, r)
    b_vectors = [cob.col(j) for j in range(cob.cols)]
    b_basis = Subspace.from_vectors(a.field, coords.total, b_vectors)
    reps = []
    for row in z_basis.basis.entries:
        reduced = b_basis.reduce(row)
        if not vec_is_zero(reduced):
            reps.append(reduced)
    reps_basis = Subspace.from_vectors(a.field, coords.total, reps)
    representatives = [coords.decode(v) for v in reps_basis.basis.entries]
    return CohomologyResult(z_basis.dim, b_basis.dim, z_basis.dim - b_basis.dim,
                            z_basis, b_basis, representatives, variant)


def cocycles_cohomologous(a: BolAlgebra, r: Representation, c1, c2,
                          variant: Variant = Variant.CORRECTED) -> Optional[tuple]:
    """A (f, chi) with coboundary(f, chi) = c1 - c2, or None.

    Both inputs must pass `is_cocycle23`; anything else is a usage error.
    """
    nu1, om1 = c1
    nu2, om2 = c2
    if not is_cocycle23(a, r, nu1, om1, variant).valid:
        raise UsageError("first argument is not a cocycle")
    if not is_cocycle23(a, r, nu2, om2, variant).valid:
        raise UsageError("second argument is not a cocycle")
    cob, coords = coboundary_matrix(a, r)
    target = vec_sub(coords.encode(nu1, om1), coords.encode(nu2, om2))
    sol = cob.solve(target)
    if sol is None:
        return None
    n, m = a.dim, r.module_dim
    f = _phi_from_params(a.field, n, m, sol)
    chi = tuple(sol[n * m + t] for t in range(m))
    return f, chi
