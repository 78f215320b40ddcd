"""Non-abelian (2,3)-cocycles with values in a Bol algebra, the product
formulas gluing base and fiber, and cocycle equivalence.

A cocycle is a quintuple (nu, omega, mu, theta, D) over a base B and fiber V.
It is exactly the data extracted from a split linear decomposition of an
extension, and the glued structure on B + V,

  (x+a)*(y+b)   = x*y + nu(x,y) + mu(x)b - mu(y)a + a*b
  [x+a,y+b,z+c] = [x,y,z] + omega(x,y,z) + D(x,y)c + theta(y,z)a
                    - theta(x,z)b + [a,b,c]

is a Bol algebra precisely when the CORRECTED identity set holds.  That set
was obtained by expanding the five axioms of the glued structure on mixed
basis tuples; it differs from the commonly printed one in a handful of signs,
one argument swap, and extra fiber-coupling identities that vanish for
abelian fibers.  `Variant.STRICT` checks the printed forms instead (with the
one unbound symbol read by type analogy), for auditability.

The identities of both variants are the rows of `identities.NAB`, which
`validate_nab_cocycle` reads; the variant-only terms and the corrected-only
fiber couplings are marked there.

Decisions about an unknown map phi: B -> V (equivalence here; inducibility
and degree-one cocycles in `wells`) share one path.  Each identity suite is
written once, as a generator of (tag, where, residual) in report order: its
nonzero residuals form the `ValidationReport`, and the concatenated rows of
the tags that are affine in phi (abelian fiber) form the linear system.
`_affine_system` probes that system at the zero map and at each unit map,
`_solve_for_phi` solves it with free parameters at zero, and `_search_phi`
searches GF(p) maps exhaustively when the fiber is not abelian.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bruteforce, identities
from .bol import BolAlgebra, zero_algebra
from .cohomology import Cochain2, Cochain3, _phi_from_params, _unit_phi
from .core import (DEFAULT_ENUMERATION_BOUND, Decision, Status,
                   ValidationReport, Variant)
from .errors import UsageError
from .identities import residues
from .exactlin import (Matrix, basis_vec, enumerate_vectors, vec_add, vec_neg,
                       vec_sub, zero_vec)
from .representation import ActionOps, Representation

__all__ = [
    "NonAbelianCocycle", "validate_nab_cocycle", "build_extension_algebra",
    "cocycles_equivalent_via", "solve_equivalence",
]


@dataclass(frozen=True)
class NonAbelianCocycle(ActionOps):
    """Cocycle data: nu, omega are fiber-valued cochains on the base; mu[i],
    theta[i][j], dd[i][j] are fiber endomorphism matrices."""

    base: BolAlgebra
    fiber: BolAlgebra
    nu: Cochain2
    omega: Cochain3
    mu: tuple
    theta: tuple
    dd: tuple

    def __post_init__(self):
        n, m = self.base.dim, self.fiber.dim
        if self.base.field != self.fiber.field:
            raise UsageError("base and fiber must share a field")
        if self.nu.n != n or self.nu.m != m or self.omega.n != n or self.omega.m != m:
            raise UsageError("cochain shapes do not match base and fiber")
        self._check_actions(n, "base")

    @property
    def n(self):
        return self.base.dim

    @property
    def m(self):
        return self.fiber.dim

    @property
    def field(self):
        return self.base.field

    @classmethod
    def zero(cls, base: BolAlgebra, fiber: BolAlgebra) -> "NonAbelianCocycle":
        n, m = base.dim, fiber.dim
        z = Matrix.zeros(base.field, m, m)
        return cls(base, fiber,
                   Cochain2.zero(n, m, base.field), Cochain3.zero(n, m, base.field),
                   (z,) * n, tuple((z,) * n for _ in range(n)),
                   tuple((z,) * n for _ in range(n)))

    @classmethod
    def split(cls, base: BolAlgebra, r: Representation) -> "NonAbelianCocycle":
        """The zero cocycle over base whose actions on an abelian fiber are
        r's: its glued algebra is the semidirect sum."""
        n, m = base.dim, r.module_dim
        return cls(base, zero_algebra(base.field, m),
                   Cochain2.zero(n, m, base.field), Cochain3.zero(n, m, base.field),
                   r.mu, r.theta, r.dd)

    def same_shape(self, other: "NonAbelianCocycle") -> bool:
        """Equivalence only makes sense over one base and one fiber."""
        return self.base == other.base and self.fiber == other.fiber


def validate_nab_cocycle(c: NonAbelianCocycle,
                         variant: Variant = Variant.CORRECTED) -> ValidationReport:
    """Check the full identity suite of the selected variant on basis tuples."""
    return identities.report(identities.NAB, c.field, variant, bil=c.base.bil,
                             tri=c.base.tri, vbil=c.fiber.bil, vtri=c.fiber.tri,
                             nu=c.nu.grid, om=c.omega.grid, **c.action_entries())


def build_extension_algebra(c: NonAbelianCocycle) -> BolAlgebra:
    """The glued structure on base + fiber; validity of c is not required
    (the construction is the other route of the iff check)."""
    n, m = c.n, c.m
    d = n + m
    field = c.field
    B, V = c.base, c.fiber

    def emb_b(vec, vpart=None):
        return tuple(vec) + (tuple(vpart) if vpart is not None else zero_vec(field, m))

    def emb_v(vec):
        return zero_vec(field, n) + tuple(vec)

    z = zero_vec(field, d)
    bil = [[z for _ in range(d)] for _ in range(d)]
    tri = [[[z for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            bil[i][j] = emb_b(B.bil[i][j], c.nu.at(i, j))
            for k in range(n):
                tri[i][j][k] = emb_b(B.tri[i][j][k], c.omega.at(i, j, k))
    for i in range(n):
        for v in range(m):
            bil[i][n + v] = emb_v(c.mu[i].col(v))
            bil[n + v][i] = emb_v(vec_neg(c.mu[i].col(v)))
    for u in range(m):
        for v in range(m):
            bil[n + u][n + v] = emb_v(V.bil[u][v])
            for w in range(m):
                tri[n + u][n + v][n + w] = emb_v(V.tri[u][v][w])
    for i in range(n):
        for j in range(n):
            for w in range(m):
                tri[i][j][n + w] = emb_v(c.dd[i][j].col(w))
                tri[n + w][i][j] = emb_v(c.theta[i][j].col(w))
                tri[i][n + w][j] = emb_v(vec_neg(c.theta[i][j].col(w)))
    return BolAlgebra(field, d,
                      tuple(tuple(row) for row in bil),
                      tuple(tuple(tuple(k) for k in row) for row in tri))


# ---------------------------------------------------------------------------
# equivalence

def cocycles_equivalent_via(c1: NonAbelianCocycle, c2: NonAbelianCocycle,
                            phi: Matrix) -> ValidationReport:
    """Check the five equivalence identities for the given comparison map.

    Tags: eqv-omega, eqv-nu, eqv-mu, eqv-theta, eqv-d.  Signs follow the
    printed convention (note eqv-nu uses +phi(x*y), opposite to the abelian
    coboundary convention).
    """
    if not c1.same_shape(c2):
        raise UsageError("cocycles live over different shapes")
    n, m = c1.n, c1.m
    if phi.rows != m or phi.cols != n or phi.field != c1.field:
        raise UsageError("comparison map has wrong shape")
    return ValidationReport.from_residuals(_equivalence_residuals(c1, c2, phi))


_EQV_TAGS = ("eqv-omega", "eqv-nu", "eqv-mu", "eqv-theta", "eqv-d")
_EQV_LINEAR = _EQV_TAGS[:2]


def _equivalence_residuals(c1, c2, phi, tags=_EQV_TAGS):
    """(tag, where, residual) of the equivalence identities named in tags,
    in report order: omega (x,y,z), nu (x,y), mu (x,a), then theta and D
    per (x,y,a).  Over an abelian fiber the omega/nu residuals are affine in
    phi and the rest do not depend on it."""
    n, m = c1.n, c1.m
    B, V = c1.base, c1.fiber
    pe = [phi.col(i) for i in range(n)]
    ev = [basis_vec(c1.field, m, a) for a in range(m)]
    if "eqv-omega" in tags:
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    r = vec_sub(c1.omega.at(x, y, z), c2.omega.at(x, y, z))
                    r = vec_sub(r, c2.theta[x][z].apply(pe[y]))
                    r = vec_add(r, c2.dd[x][y].apply(pe[z]))
                    r = vec_add(r, c2.theta[y][z].apply(pe[x]))
                    r = vec_add(r, V.bracket(pe[x], pe[y], pe[z]))
                    r = vec_sub(r, phi.apply(B.tri[x][y][z]))
                    yield "eqv-omega", (x, y, z), r
    if "eqv-nu" in tags:
        for x in range(n):
            for y in range(n):
                r = vec_sub(c1.nu.at(x, y), c2.nu.at(x, y))
                r = vec_sub(r, V.star(pe[x], pe[y]))
                r = vec_sub(r, phi.apply(B.bil[x][y]))
                r = vec_add(r, c2.mu[x].apply(pe[y]))
                r = vec_sub(r, c2.mu[y].apply(pe[x]))
                yield "eqv-nu", (x, y), r
    if "eqv-mu" in tags:
        for x in range(n):
            for a in range(m):
                r = vec_sub(c1.mu[x].apply(ev[a]), c2.mu[x].apply(ev[a]))
                r = vec_sub(r, V.star(ev[a], pe[x]))
                yield "eqv-mu", (x, a), r
    for x in range(n):
        for y in range(n):
            for a in range(m):
                if "eqv-theta" in tags:
                    r = vec_sub(c1.theta[x][y].apply(ev[a]), c2.theta[x][y].apply(ev[a]))
                    r = vec_sub(r, V.bracket(ev[a], pe[x], pe[y]))
                    yield "eqv-theta", (x, y, a), r
                if "eqv-d" in tags:
                    r = vec_sub(c1.dd[x][y].apply(ev[a]), c2.dd[x][y].apply(ev[a]))
                    r = vec_sub(r, V.bracket(pe[x], pe[y], ev[a]))
                    yield "eqv-d", (x, y, a), r


# ---------------------------------------------------------------------------
# decisions affine in the unknown map phi: B -> V

def _rows(items) -> tuple:
    """The residuals of a (tag, where, residual) stream, concatenated."""
    return tuple(x for _, _, r in items for x in r)


def _affine_system(rows_of, field, n, m):
    """(A, b) with rows_of(phi) = A x + b, x the parameters of phi in
    `_phi_from_params` order, for rows affine in phi: probes the zero map
    and each unit map."""
    b = rows_of(Matrix.zeros(field, m, n))
    cols = [vec_sub(rows_of(_unit_phi(field, n, m, k)), b) for k in range(n * m)]
    return Matrix.from_cols(field, cols, rows=len(b)), b


def _solve_for_phi(rows_of, field, n, m):
    """The phi with rows_of(phi) = 0 and its free parameters zero, or None."""
    a, b = _affine_system(rows_of, field, n, m)
    x = a.solve(vec_neg(b))
    return None if x is None else _phi_from_params(field, n, m, x)


def _phi_candidates(field, n, m, bound: int):
    """(every GF(p) map phi in `enumerate_vectors` order, "") or, where they
    are not enumerated, (None, the reason); for non-abelian fibers."""
    if not field.is_prime_field:
        return None, "non-abelian fiber over an infinite field"
    total = field.p ** (n * m)
    if total > bound:
        return None, f"{total} candidate maps exceed the bound {bound}"
    return (_phi_from_params(field, n, m, vec)
            for vec in enumerate_vectors(field, n * m)), ""


def _search_phi(field, n, m, bound: int, accepts) -> Decision:
    """The first candidate phi that `accepts`, by exhaustive search."""
    phis, reason = _phi_candidates(field, n, m, bound)
    if phis is None:
        return Decision(Status.UNDECIDED, reason=reason)
    phi = next(filter(accepts, phis), None)
    if phi is None:
        return Decision(Status.NONE, reason="exhausted")
    return Decision(Status.FOUND, witness=phi)


def solve_equivalence(c1: NonAbelianCocycle, c2: NonAbelianCocycle,
                      bound: int = DEFAULT_ENUMERATION_BOUND) -> Decision:
    """Find a comparison map or decide none exists.

    Abelian fiber: the identities are affine in phi, solved exactly over any
    field.  Otherwise exhaustive over GF(p) maps when p^(n*m) fits the bound.
    """
    if not c1.same_shape(c2):
        raise UsageError("cocycles live over different shapes")
    n, m = c1.n, c1.m
    field = c1.field
    if not c1.fiber.is_abelian():
        return _search_phi(field, n, m, bound,
                           lambda phi: cocycles_equivalent_via(c1, c2, phi).valid)
    # phi-free gates
    for x in range(n):
        if c1.mu[x] != c2.mu[x]:
            return Decision(Status.NONE, reason="eqv-mu")
    for x in range(n):
        for y in range(n):
            if c1.theta[x][y] != c2.theta[x][y]:
                return Decision(Status.NONE, reason="eqv-theta")
            if c1.dd[x][y] != c2.dd[x][y]:
                return Decision(Status.NONE, reason="eqv-d")
    phi = _solve_for_phi(
        lambda f: _rows(_equivalence_residuals(c1, c2, f, _EQV_LINEAR)), field, n, m)
    if phi is None:
        return Decision(Status.NONE, reason="eqv-omega+eqv-nu")
    assert cocycles_equivalent_via(c1, c2, phi).valid
    return Decision(Status.FOUND, witness=phi)


# ---------------------------------------------------------------------------
# the abelian-fiber equivalence system on residue arrays

class _CocycleArrays(NamedTuple):
    """Cocycle data as residue arrays: nu[x,y,s], om[x,y,z,s] and the action
    matrices mu[x,s,t], theta[x,y,s,t], dd[x,y,s,t] (row s, column t), each
    with a leading pair axis when it belongs to an acted cocycle."""

    nu: np.ndarray
    om: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    dd: np.ndarray

    def take(self, mask) -> "_CocycleArrays":
        return _CocycleArrays(*(a[mask] for a in self))


def _cocycle_arrays(c: NonAbelianCocycle) -> _CocycleArrays:
    return _CocycleArrays(residues(c.nu.grid), residues(c.omega.grid),
                          *map(residues, c.action_entries().values()))


def _equivalent_via(c1: _CocycleArrays, c2: _CocycleArrays, phi, bil, tri,
                    p) -> np.ndarray:
    """`cocycles_equivalent_via(c1[k], c2, phi[k]).valid` per k, for an
    abelian fiber (its product terms vanish); phi[k, t, q] is the t-th
    coordinate of phi(e_q).  c2.nu and c2.om may carry the leading axis too,
    one target per k."""
    f = bruteforce.contract_mod
    om = (c1.om - c2.om
          - f("xzst,kty->kxyzs", p, c2.theta, phi)
          + f("xyst,ktz->kxyzs", p, c2.dd, phi)
          + f("yzst,ktx->kxyzs", p, c2.theta, phi)
          - f("ksq,xyzq->kxyzs", p, phi, tri)) % p
    nu = (c1.nu - c2.nu
          - f("ksq,xyq->kxys", p, phi, bil)
          + f("xst,kty->kxys", p, c2.mu, phi)
          - f("yst,ktx->kxys", p, c2.mu, phi)) % p
    residuals = (om, nu, c1.mu - c2.mu, c1.theta - c2.theta, c1.dd - c2.dd)
    ok = np.ones(phi.shape[0], dtype=bool)
    for r in residuals:
        ok &= ~np.any(r % p, axis=tuple(range(1, r.ndim)))
    return ok


def _equivalence_matrix(c: NonAbelianCocycle) -> np.ndarray:
    """Matrix of the omega/nu equivalence system of any cocycle against c:
    rows in `_equivalence_residuals` order, columns in `_phi_from_params`
    order.  Only the right-hand side depends on the other cocycle."""
    a, _ = _affine_system(
        lambda phi: _rows(_equivalence_residuals(c, c, phi, _EQV_LINEAR)),
        c.field, c.n, c.m)
    return residues(a.entries)
