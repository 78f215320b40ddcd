"""Modules over a Bol algebra: the action triple (mu, theta, D), the six
module identities, the semidirect sum, and pseudoderivations.

The module identities (rep-d-theta, rep-d-mu, rep-theta-star, rep-d-d,
rep-d-theta-comm, rep-theta-bracket) are the rows of `identities.REP`, which
`validate_representation` and `bruteforce.validate_rep_mask` read.  D is
stored explicitly and required skew; rep-d-theta is validated rather than
used to derive D.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bruteforce, identities
from .bol import BolAlgebra
from .core import DEFAULT_ENUMERATION_BOUND, ValidationReport
from .errors import UnsupportedEnumerationError, UsageError
from .exactlin import Matrix

__all__ = [
    "Representation", "validate_representation", "semidirect_product",
    "is_pseudoderivation", "trivial_representation", "r_s2",
    "semidirect_iff_census", "IffCensus",
]


class ActionOps:
    """The action matrices extended linearly (mu) and bilinearly (theta, D)
    to arbitrary coordinates.  The host supplies `field`, `m` (the module
    dimension) and the basis images `mu`, `theta`, `dd`."""

    def _check_actions(self, n, role):
        """mu holds n matrices, theta and dd n x n grids, all m x m over
        the host's field."""
        if len(self.mu) != n:
            raise UsageError(f"mu needs one matrix per {role} basis vector")
        for mat in self.mu:
            self._check_matrix(mat)
        for grid in (self.theta, self.dd):
            if len(grid) != n or any(len(r) != n for r in grid):
                raise UsageError("action grid has wrong shape")
            for r in grid:
                for mat in r:
                    self._check_matrix(mat)

    def _check_matrix(self, mat):
        if not isinstance(mat, Matrix) or mat.rows != self.m or mat.cols != self.m \
                or mat.field != self.field:
            raise UsageError("action matrix has wrong shape or field")

    def action_entries(self) -> dict:
        """mu, theta and dd as nested tuples of matrix entries."""
        return {"mu": tuple(a.entries for a in self.mu),
                "theta": tuple(tuple(a.entries for a in row) for row in self.theta),
                "dd": tuple(tuple(a.entries for a in row) for row in self.dd)}

    def mu_op(self, x) -> Matrix:
        out = Matrix.zeros(self.field, self.m, self.m)
        for i, c in enumerate(x):
            if c:
                out = out + self.mu[i].scale(c)
        return out

    def theta_op(self, x, y) -> Matrix:
        return self._bilinear_op(self.theta, x, y)

    def dd_op(self, x, y) -> Matrix:
        return self._bilinear_op(self.dd, x, y)

    def _bilinear_op(self, grid, x, y) -> Matrix:
        out = Matrix.zeros(self.field, self.m, self.m)
        for i, ci in enumerate(x):
            if not ci:
                continue
            for j, cj in enumerate(y):
                if cj:
                    out = out + grid[i][j].scale(ci * cj)
        return out


@dataclass(frozen=True)
class Representation(ActionOps):
    """Action data on field^module_dim: mu[i], theta[i][j], dd[i][j] are
    module_dim x module_dim matrices (images of basis tuples)."""

    field: object
    algebra_dim: int
    module_dim: int
    mu: tuple
    theta: tuple
    dd: tuple

    def __post_init__(self):
        n = self.algebra_dim
        self._check_actions(n, "algebra")
        for i in range(n):
            for j in range(n):
                if not (self.dd[i][j] + self.dd[j][i]).is_zero():
                    raise UsageError("D must be alternating")

    @property
    def m(self):
        return self.module_dim


def trivial_representation(field, algebra_dim: int, module_dim: int = 1) -> Representation:
    """All actions zero."""
    z = Matrix.zeros(field, module_dim, module_dim)
    n = algebra_dim
    return Representation(field, n, module_dim,
                          (z,) * n,
                          tuple((z,) * n for _ in range(n)),
                          tuple((z,) * n for _ in range(n)))


def r_s2(field) -> Representation:
    """One-dimensional module over the s2 fixture: mu(e2) = 1, the rest zero."""
    z = Matrix.zeros(field, 1, 1)
    one = Matrix.identity(field, 1)
    return Representation(field, 2, 1, (z, one),
                          ((z, z), (z, z)), ((z, z), (z, z)))


def _require_compatible(a: BolAlgebra, r: Representation):
    if r.algebra_dim != a.dim or r.field != a.field:
        raise UsageError("representation does not match the algebra")


def validate_representation(a: BolAlgebra, r: Representation) -> ValidationReport:
    """Check the six module identities on all basis tuples."""
    _require_compatible(a, r)
    return identities.report(identities.REP, a.field, bil=a.bil, tri=a.tri,
                             **r.action_entries())


def semidirect_product(a: BolAlgebra, r: Representation) -> BolAlgebra:
    """Structure on a + module with
    (x+u)*(y+v) = x*y + mu(x)v - mu(y)u  and
    [x+u,y+v,z+w] = [x,y,z] + theta(y,z)u - theta(x,z)v + D(x,y)w,
    the glued algebra of the zero cocycle that carries r's actions.
    """
    from .nonabelian import NonAbelianCocycle, build_extension_algebra
    _require_compatible(a, r)
    return build_extension_algebra(NonAbelianCocycle.split(a, r))


def is_pseudoderivation(f: Matrix, chi, a: BolAlgebra, r: Representation) -> bool:
    """f(x*y) = mu(x)f(y) - mu(y)f(x) + (D(x,y) - mu(x*y))(chi)  and
    f([x,y,z]) = theta(y,z)f(x) - theta(x,z)f(y) + D(x,y)f(z): the
    coboundary of (f, chi) vanishes."""
    from .cohomology import Cochain2, Cochain3, coboundary
    _require_compatible(a, r)
    if f.rows != r.module_dim or f.cols != a.dim or len(chi) != r.module_dim:
        raise UsageError("pseudoderivation data has wrong shape")
    n, m = a.dim, r.module_dim
    return coboundary(f, chi, a, r) == (Cochain2.zero(n, m, a.field),
                                        Cochain3.zero(n, m, a.field))


# ---------------------------------------------------------------------------
# exhaustive two-route census (module identities vs. semidirect axioms)

# candidates per census chunk, and (algebra, candidate) pairs per stacked
# slice: the action batches and glued tensors of one chunk or slice set the
# census's peak memory
_CENSUS_CHUNK = 1 << 14
# each route's identities that read neither bil nor mu (the tail), and the
# rest: the module identities of theta, D and the base tri; the Bol axioms
# of the glued tri, which is glued from the base tri, theta and D alone
_REP_TAIL, _REP_REST = bruteforce.reading(identities.REP, ("tri", "theta", "dd"))
_BOL_TAIL, _BOL_REST = bruteforce.reading(identities.BOL, ("tri",))


@dataclass
class IffCensus:
    algebras: int
    candidates_per_algebra: int
    valid_pairs: int
    discrepancies: list


def semidirect_iff_census(field, algebra_dim: int, module_dim: int = 1,
                          tri_zero: bool = True,
                          budget: int = DEFAULT_ENUMERATION_BOUND) -> IffCensus:
    """For every enumerated algebra and every candidate action tuple, compare
    the module-identity verdict with the axiom verdict of the semidirect sum.

    Both routes are computed independently (`_census_routes`);
    `discrepancies` lists (algebra index, candidate index) pairs where they
    disagree.
    """
    if algebra_dim < 0 or module_dim < 0:
        raise UsageError(f"census dimensions must be nonnegative, got "
                         f"{algebra_dim} and {module_dim}")
    if not field.is_prime_field:
        raise UnsupportedEnumerationError("the census needs a finite field")
    p = field.p
    n, m = algebra_dim, module_dim
    width = bruteforce._rep_param_width(n, m)
    blocks = bruteforce.candidate_blocks(p, width, budget, "representations",
                                         _CENSUS_CHUNK)
    algebras = [(bil.copy(), tri.copy()) for bil, tri in
                bruteforce.enumerate_valid_tensors(n, p, tri_zero, budget)]
    discrepancies = []
    valid = 0
    for start, params in blocks:
        for k, (route1, route2) in enumerate(_census_routes(algebras, n, m, p, params)):
            valid += int(route1.sum())
            discrepancies.extend((k, start + int(i))
                                 for i in np.flatnonzero(route1 != route2))
    return IffCensus(len(algebras), p ** width, valid, sorted(discrepancies))


def _census_routes(algebras, n: int, m: int, p: int, params):
    """(route-1 mask, route-2 mask) per algebra (bil, tri) on the candidate
    action tuples of the digit rows `params`: the module identities (`REP`),
    and the Bol axioms (`BOL`) of the semidirect sum.

    No identity is decided twice on the same inputs.  The tail identities of
    each route read only the base tri, theta and D, so they are decided once
    per distinct base tri, on the chunk's distinct (theta, D) digit strings,
    and read back for every row.  The rest of each route is decided once per
    tri class, on the (algebra, row) pairs of the class's algebras and that
    route's tail survivors, stacked in slices of at most `_CENSUS_CHUNK`
    pairs; route 2 glues only those pairs.  The routes share only the choice
    of the distinct rows, which holds no verdict."""
    mu, theta, dd = bruteforce.rep_param_batches(n, m, p, params)
    # theta and D are the digits after mu's
    tail = params[:, n * m * m:].astype(np.int64)
    code = tail @ p ** np.arange(tail.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    classes = {}
    for k, (_, tri) in enumerate(algebras):
        classes.setdefault(tri.tobytes(), []).append(k)
    verdicts = [None] * len(algebras)
    for ks in classes.values():
        bils = np.stack([algebras[k][0] for k in ks])
        tri = algebras[ks[0]][1]
        tail1 = bruteforce.identity_mask(_REP_TAIL, p, {"theta": theta[first], "dd": dd[first]},
                                         {"tri": tri})
        _, tri_e = bruteforce.semidirect_arrays(bils[0], tri, mu[first], theta[first],
                                                dd[first], p)
        tail2 = bruteforce.identity_mask(_BOL_TAIL, p, {"tri": tri_e})
        routes = []
        for survived, decide in ((tail1[inverse], _rep_rest), (tail2[inverse], _bol_rest)):
            rows = np.flatnonzero(survived)
            passed = np.zeros(len(ks) * rows.size, dtype=bool)
            for start in range(0, passed.size, _CENSUS_CHUNK):
                pair = np.arange(start, min(start + _CENSUS_CHUNK, passed.size))
                row = rows[pair % rows.size]
                passed[pair] = decide(bils[pair // rows.size], tri, mu[row], theta[row],
                                      dd[row], p)
            routes.append((rows, passed.reshape(len(ks), rows.size)))
        for q, k in enumerate(ks):
            verdicts[k] = [(rows, passed[q]) for rows, passed in routes]
    for routes in verdicts:
        masks = []
        for rows, passed in routes:
            mask = np.zeros(len(params), dtype=bool)
            mask[rows] = passed
            masks.append(mask)
        yield tuple(masks)


def _rep_rest(bil, tri, mu, theta, dd, p):
    """Route 1 past its tail: the module identities that read bil or mu."""
    return bruteforce.identity_mask(_REP_REST, p, {"bil": bil, "mu": mu, "theta": theta,
                                                   "dd": dd}, {"tri": tri})


def _bol_rest(bil, tri, mu, theta, dd, p):
    """Route 2 past its tail: the Bol axioms of the glue that read its bil."""
    bil_e, tri_e = bruteforce.semidirect_arrays(bil, tri, mu, theta, dd, p)
    return bruteforce.identity_mask(_BOL_REST, p, {"bil": bil_e, "tri": tri_e})
