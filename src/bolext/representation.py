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
from .exactlin import Matrix, negatives

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
            for j in range(i, n):
                if not negatives(self.dd[i][j].entries, self.dd[j][i].entries):
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

# (theta, D) tail strings per census chunk, and (algebra, candidate) pairs
# per stacked slice.  The census's peak memory is set by one chunk's tail
# pass (its action batches and glued tri) or one slice: its masks, its
# indices and the glued bil of each (algebra, mu string) it reaches, at
# most one more than its pairs; `identity_mask` gathers at most
# `bruteforce._ENTRIES` entries at a time
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

    Both routes are computed independently (`_census_routes`), one tri
    class at a time, on the class's p^w (theta, D) tail strings in chunks of
    at most `_CENSUS_CHUNK`; the p^(nm^2) mu digits lead, so candidate k has
    mu string k // p^w and tail string k mod p^w.  `discrepancies` lists
    (algebra index, candidate index) pairs where the routes disagree.
    """
    if algebra_dim < 0 or module_dim < 0:
        raise UsageError(f"census dimensions must be nonnegative, got "
                         f"{algebra_dim} and {module_dim}")
    if not field.is_prime_field:
        raise UnsupportedEnumerationError("the census needs a finite field")
    p = field.p
    n, m = algebra_dim, module_dim
    width = bruteforce._rep_param_width(n, m)
    tail_width = width - n * m * m
    # the bound covers all p^width candidates, checked before any algebra
    # is enumerated
    bruteforce.candidate_blocks(p, width, budget, "representations")
    algebras = 0
    classes = {}
    for bil, tri in bruteforce.enumerate_valid_tensors(n, p, tri_zero, budget):
        _, ks, bils = classes.setdefault(tri.tobytes(), (tri.copy(), [], []))
        ks.append(algebras)
        bils.append(bil.copy())
        algebras += 1
    discrepancies = []
    valid = 0
    for tri, ks, bils in classes.values():
        ks, bils = np.array(ks), np.stack(bils)
        for start, tails in bruteforce.candidate_blocks(p, tail_width, budget,
                                                        "representations", _CENSUS_CHUNK):
            for q, i, j, route1, route2 in _census_routes(bils, tri, m, p, tails):
                valid += int(route1.sum())
                bad = route1 != route2
                discrepancies.extend(zip(ks[q[bad]].tolist(),
                                         (i[bad] * p ** tail_width + start + j[bad]).tolist()))
    return IffCensus(algebras, p ** width, valid, sorted(discrepancies))


def _census_routes(bils, tri, m: int, p: int, tails):
    """The route-1 and route-2 verdicts of the algebras (bils[q], tri) of
    one tri class on the candidates whose (theta, D) digits are a row of
    `tails` and whose mu digits are any of the p^(nm^2) strings: the module
    identities (`REP`), and the Bol axioms (`BOL`) of the semidirect sum.

    Yields (q, i, j, route 1, route 2) per slice of at most `_CENSUS_CHUNK`
    (algebra, candidate) pairs: algebra q, mu string i, tail row j.  Each
    route's tail is decided once on `tails`, from its own table; the slices
    run over the union of the two tails' survivors, and each route's rest
    only on its own survivors there, the class's tri fixed.  The rests read
    each pair through an index into its factors: route 1 the algebras'
    bil, the mu strings' mu and the surviving tails' theta and D; route 2
    the glued tri of the surviving tails, from the tail pass, and the glued
    bil of each (algebra, mu string) the slice reaches, which reads no
    tail.  A candidate outside the union fails both routes and is not
    yielded.  The routes share which pairs are sliced, never a verdict."""
    n, lead = tri.shape[0], tri.shape[0] * m * m
    # the tail strings with zero mu digits: the glued tri reads no mu
    zero, theta, dd = bruteforce.rep_param_batches(n, m, p, np.pad(tails, ((0, 0), (lead, 0))))
    tail1 = bruteforce.identity_mask(_REP_TAIL, p, {"theta": theta, "dd": dd}, {"tri": tri})
    _, tri_e = bruteforce.semidirect_arrays(bils[0], tri, zero, theta, dd, p)
    tail2 = bruteforce.identity_mask(_BOL_TAIL, p, {"tri": tri_e})
    rows = np.flatnonzero(tail1 | tail2)
    tail1, tail2, theta, dd, tri_e = (a[rows] for a in (tail1, tail2, theta, dd, tri_e))
    mus = bruteforce.digit_block(0, p ** lead, p, lead, tails.dtype)
    mus = bruteforce.rep_param_batches(n, m, p, np.pad(mus, ((0, 0), (0, tails.shape[1]))))[0]
    per_algebra = len(mus) * rows.size
    for start in range(0, len(bils) * per_algebra, _CENSUS_CHUNK):
        pair = np.arange(start, min(start + _CENSUS_CHUNK, len(bils) * per_algebra))
        # the (algebra, mu string) combinations c of the slice run first..last
        c, j = pair // rows.size, pair % rows.size
        q, i, first, last = c // len(mus), c % len(mus), c[0], c[-1]
        reached = np.arange(first, min(last + 1, first + len(mus))) % len(mus)
        route1 = bruteforce.identity_mask(
            _REP_REST, p, {"bil": bils[q[0]:q[-1] + 1], "mu": mus[reached], "theta": theta,
                           "dd": dd}, {"tri": tri}, tail1[j],
            {"bil": q - q[0], "mu": (c - first) % len(mus), "theta": j, "dd": j})
        combos = np.arange(first, last + 1)
        bil_e, _ = bruteforce.semidirect_arrays(bils[combos // len(mus)], tri,
                                                mus[combos % len(mus)], None, None, p)
        route2 = bruteforce.identity_mask(_BOL_REST, p, {"bil": bil_e, "tri": tri_e}, None,
                                          tail2[j], {"bil": c - first, "tri": j})
        yield q, i, rows[j], route1, route2
