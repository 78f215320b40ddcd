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

The block layout of this formula is written once, in `glue`: it builds every
glued total (`build_extension_algebra`, and the batched semidirect sums of
`bruteforce.semidirect_arrays`), and `extensions.extract_cocycle` reads the
same blocks back.

The identities of both variants are the rows of `identities.NAB`, which
`validate_nab_cocycle` reads; the variant-only terms and the corrected-only
fiber couplings are marked there.

Decisions about an unknown map phi: B -> V (equivalence here; inducibility
and degree-one cocycles in `wells`) share one path.  Each is a table with
phi as a named tensor (`identities.EQV`, `IND`, `Z1`): `identities.report`
checks a given phi; over an abelian fiber `identities.affine` reads the
linear system in phi off the table and `_solve_for_phi` solves it with free
parameters at zero; otherwise `_phi_solutions` decides every GF(p) map by
`bruteforce.identity_mask`.  `identities.report` checks each witness again.

`_orbit` is the residue reader of `EQV`: T_phi(c), the cocycle that phi
makes equivalent to c, for a stack of maps at once.  Many equivalence
questions against one cocycle c, over any fiber, are pushed instead of
pulled: `_orbit_lookup` makes T_phi(c) for every map once and looks each
question up in that orbit.  Over an abelian fiber T_phi of the zero cocycle
is linear in phi, so its values at the unit maps are the matrix of the
equivalence system (`_equivalence_matrix`) that classification reduces.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

from . import bruteforce, identities
from .bol import BolAlgebra, validate_bol, zero_algebra
from .cohomology import Cochain2, Cochain3, _phi_from_params
from .core import (DEFAULT_ENUMERATION_BOUND, Decision, Status,
                   ValidationReport, Variant)
from .errors import (InternalConsistencyError, UnsupportedEnumerationError,
                     UsageError)
from .identities import residues
from .exactlin import Matrix, vec_neg
from .representation import ActionOps, Representation

__all__ = [
    "NonAbelianCocycle", "validate_nab_cocycle", "validate_nab_parts",
    "validate_nab_full", "build_extension_algebra", "glue",
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

    def tensors(self) -> dict:
        """The named tensors of the `identities` tables: the base's bil and
        tri, the fiber's vbil and vtri, and the cocycle data."""
        return dict(bil=self.base.bil, tri=self.base.tri, vbil=self.fiber.bil,
                    vtri=self.fiber.tri, nu=self.nu.grid, om=self.omega.grid,
                    **self.action_entries())

    def same_shape(self, other: "NonAbelianCocycle") -> bool:
        """Equivalence only makes sense over one base and one fiber."""
        return self.base == other.base and self.fiber == other.fiber


def validate_nab_cocycle(c: NonAbelianCocycle,
                         variant: Variant = Variant.CORRECTED) -> ValidationReport:
    """Check the full identity suite of the selected variant on basis tuples."""
    return identities.report(identities.NAB, c.field, variant, **c.tensors())


def validate_nab_parts(c: NonAbelianCocycle) -> ValidationReport:
    """The Bol axioms of the base and of the fiber, their tags prefixed
    `base:` and `fiber:`.

    The cocycle identities describe a Bol glued algebra only over a Bol base
    and fiber.  Meant for one cocycle handed in from outside; enumerations
    over a fixed base and fiber check the cocycle suite alone per candidate.
    """
    rep = ValidationReport()
    for role, part in (("base", c.base), ("fiber", c.fiber)):
        for v in validate_bol(part).violations:
            rep.add(f"{role}:{v.tag}", v.where, v.residual)
    return rep


def validate_nab_full(c: NonAbelianCocycle,
                      variant: Variant = Variant.CORRECTED) -> ValidationReport:
    """`validate_nab_parts`, then `validate_nab_cocycle`."""
    rep = validate_nab_parts(c)
    rep.violations += validate_nab_cocycle(c, variant).violations
    return rep


def build_extension_algebra(c: NonAbelianCocycle) -> BolAlgebra:
    """The glued structure on base + fiber; validity of c is not required
    (the construction is the other route of the iff check)."""
    bil, tri = glue(**{name: np.array(t, dtype=object) for name, t in c.tensors().items()},
                    zero=c.field.zero)
    return BolAlgebra(c.field, c.n + c.m, _tuples(bil), _tuples(tri))


def _tuples(a: np.ndarray) -> tuple:
    return tuple(map(_tuples, a)) if a.ndim > 1 else tuple(a)


def glue(bil, tri, vbil, vtri, nu, om, mu, theta, dd, zero=0, p=None):
    """The structure tensors (bil, tri) of the glued algebra on B + V: the
    product formula of the module docstring, placed block by block.

    The arguments are arrays laid out as the `identities` tensors of the same
    names, each with optional leading batch axes that broadcast; a fiber
    part given as None is all zero and its blocks are left unwritten.
    Entries are only assigned and negated, so object arrays of exact scalars
    work as well as int residue arrays mod p (give p: the negated blocks are
    reduced mod p).  Entries outside every written block are `zero`.
    """
    parts = {name: a for name, a in dict(bil=bil, tri=tri, vbil=vbil, vtri=vtri, nu=nu,
                                         om=om, mu=mu, theta=theta, dd=dd).items()
             if a is not None}
    ranks = dict(bil=3, tri=4, vbil=3, vtri=4, nu=3, om=4, mu=3, theta=4, dd=4)
    leads = {name: a.shape[:a.ndim - ranks[name]] for name, a in parts.items()}
    n = bil.shape[-1]
    # every fiber part ends in a fiber axis
    d = n + next(a.shape[-1] for name, a in parts.items() if name not in ("bil", "tri"))
    dtype = np.result_type(*parts.values())

    def place(bil_e, tri_e, batched: bool):
        for name, sign, view in _blocks(bil_e, tri_e, n):
            if name in parts and bool(leads[name]) == batched:
                a = parts[name]
                view[...] = a if sign > 0 else (-a if p is None else -a % p)
        return bil_e, tri_e

    # the parts without batch axes are placed once, into the structure that
    # then fills every batch entry
    shared = place(np.full((d,) * 3, zero, dtype=dtype),
                   np.full((d,) * 4, zero, dtype=dtype), False)
    lead = np.broadcast_shapes(*leads.values())
    return place(*(np.broadcast_to(a, lead + a.shape).copy() for a in shared), True)


def _blocks(bil, tri, n: int, coords=None) -> tuple:
    """(name, sign, view) per block of the glued tensors (bil, tri) over a
    base of dimension n: the view holds sign times the `identities` tensor
    `name` and is laid out as that tensor.  The views of the fiber-valued
    blocks cover the fiber coordinates n: of their values, or `coords`.
    `glue` writes through these views and extraction reads through them.
    """
    b, f = slice(None, n), slice(n, None)
    v = f if coords is None else coords
    return (
        # (x+a)*(y+b) = x*y + nu(x,y) + mu(x)b - mu(y)a + a*b
        ("bil", 1, bil[..., b, b, b]),
        ("nu", 1, bil[..., b, b, v]),
        ("mu", 1, np.swapaxes(bil[..., b, f, v], -1, -2)),
        ("mu", -1, np.moveaxis(bil[..., f, b, v], -3, -1)),
        ("vbil", 1, bil[..., f, f, v]),
        # [x+a,y+b,z+c] = [x,y,z] + omega(x,y,z) + D(x,y)c + theta(y,z)a
        #                   - theta(x,z)b + [a,b,c]
        ("tri", 1, tri[..., b, b, b, b]),
        ("om", 1, tri[..., b, b, b, v]),
        ("dd", 1, np.swapaxes(tri[..., b, b, f, v], -1, -2)),
        ("theta", 1, np.moveaxis(tri[..., f, b, b, v], -4, -1)),
        ("theta", -1, np.moveaxis(tri[..., b, f, b, v], -3, -1)),
        ("vtri", 1, tri[..., f, f, f, v]),
    )


# ---------------------------------------------------------------------------
# equivalence

def cocycles_equivalent_via(c1: NonAbelianCocycle, c2: NonAbelianCocycle,
                            phi: Matrix) -> ValidationReport:
    """Check the five equivalence identities (`identities.EQV`) for the
    given comparison map.  Tags: eqv-omega, eqv-nu, eqv-mu, eqv-theta, eqv-d.
    """
    if not c1.same_shape(c2):
        raise UsageError("cocycles live over different shapes")
    n, m = c1.n, c1.m
    if phi.rows != m or phi.cols != n or phi.field != c1.field:
        raise UsageError("comparison map has wrong shape")
    return identities.report(identities.EQV, c1.field, phi=phi.entries,
                             **_equivalence_tensors(c1, c2))


def _equivalence_tensors(c1: NonAbelianCocycle, c2: NonAbelianCocycle) -> dict:
    """The tensors of `identities.EQV` but phi: c2's, and c1's cocycle data
    with the suffix 1."""
    t1 = c1.tensors()
    return dict(c2.tensors(), **{k + "1": t1[k] for k in ("nu", "om", "mu", "theta", "dd")})


# ---------------------------------------------------------------------------
# decisions affine in the unknown map phi: B -> V

def _solve_for_phi(field, n, m, blocks):
    """The phi with A x + b = 0 over the stacked (A, b) blocks of
    `identities.affine`, its free parameters zero, or None."""
    blocks = list(blocks)
    a = Matrix(field, [row for rows, _ in blocks for row in rows], cols=n * m)
    x = a.solve(vec_neg([v for _, b in blocks for v in b]))
    return None if x is None else _phi_from_params(field, n, m, x)


def _phi_solutions(suite, field, n, m, bound: int, tensors: dict):
    """The GF(p) maps phi that satisfy `suite` given the other tensors, in
    `enumerate_vectors` order, one `identity_mask` pass per chunk as they are
    read.  Raises UnsupportedEnumerationError at once over an infinite field
    or past the bound."""
    if not field.is_prime_field:
        raise UnsupportedEnumerationError("non-abelian fiber over an infinite field")
    p = field.p
    blocks = bruteforce.candidate_blocks(p, n * m, bound, "maps")
    fixed = {name: residues(t) for name, t in tensors.items()}
    return (_phi_from_params(field, n, m, tuple(map(field.scalar, row.tolist())))
            for _, digits in blocks
            for row in digits[bruteforce.identity_mask(suite, p, {"phi": _maps(digits, n, m)},
                                                       fixed)])


def _search_phi(suite, field, n, m, bound: int, tensors: dict) -> Decision:
    """The first map of `_phi_solutions`, none, or undecided with the
    reason it was not searched."""
    try:
        phi = next(_phi_solutions(suite, field, n, m, bound, tensors), None)
    except UnsupportedEnumerationError as exc:
        return Decision(Status.UNDECIDED, reason=str(exc))
    if phi is None:
        return Decision(Status.NONE, reason="exhausted")
    return Decision(Status.FOUND, witness=phi)


def solve_equivalence(c1: NonAbelianCocycle, c2: NonAbelianCocycle,
                      bound: int = DEFAULT_ENUMERATION_BOUND) -> Decision:
    """Find a comparison map or decide none exists.

    Abelian fiber: past the phi-free gates, the identities are affine in
    phi, solved exactly over any field.  Otherwise exhaustive over GF(p)
    maps when p^(n*m) fits the bound.
    """
    if not c1.same_shape(c2):
        raise UsageError("cocycles live over different shapes")
    n, m = c1.n, c1.m
    field = c1.field
    gates = [("eqv-mu", c1.mu[x], c2.mu[x]) for x in range(n)] + [
        (tag, a[x][y], b[x][y]) for x in range(n) for y in range(n)
        for tag, a, b in (("eqv-theta", c1.theta, c2.theta), ("eqv-d", c1.dd, c2.dd))]
    if not c1.fiber.is_abelian():
        dec = _search_phi(identities.EQV, field, n, m, bound, _equivalence_tensors(c1, c2))
    elif gate := next((tag for tag, a, b in gates if a != b), None):
        return Decision(Status.NONE, reason=gate)
    else:
        # past the gates the mu, theta and D rows are 0 = 0
        system = identities.affine(identities.EQV, field, n, m,
                                   **_equivalence_tensors(c1, c2))
        phi = _solve_for_phi(field, n, m, system.values())
        dec = (Decision(Status.NONE, reason="eqv-omega+eqv-nu") if phi is None
               else Decision(Status.FOUND, witness=phi))
    if dec.found and not cocycles_equivalent_via(c1, c2, dec.witness).valid:
        raise InternalConsistencyError("equivalence witness failed verification")
    return dec


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
    def f(spec, a, b):  # a product term: zero where a factor is all zero
        return bruteforce.contract_mod(spec, p, a, b) if a.any() and b.any() else 0

    om = (c1.om - c2.om
          - f("xzst,kty->kxyzs", c2.theta, phi)
          + f("xyst,ktz->kxyzs", c2.dd, phi)
          + f("yzst,ktx->kxyzs", c2.theta, phi)
          - f("ksq,xyzq->kxyzs", phi, tri)) % p
    nu = (c1.nu - c2.nu
          - f("ksq,xyq->kxys", phi, bil)
          + f("xst,kty->kxys", c2.mu, phi)
          - f("yst,ktx->kxys", c2.mu, phi)) % p
    residuals = (om, nu, c1.mu - c2.mu, c1.theta - c2.theta, c1.dd - c2.dd)
    ok = np.ones(phi.shape[0], dtype=bool)
    for r in residuals:
        ok &= ~np.any(r % p, axis=tuple(range(1, r.ndim)))
    return ok


# ---------------------------------------------------------------------------
# equivalence by orbit, any fiber

def _orbit(tensors: dict, phi: np.ndarray, p: int) -> _CocycleArrays:
    """T_phi(c) of a cocycle c over GF(p) given as the residue arrays
    `tensors` of `c.tensors()`, per map phi[k, t, q]: B -> V, as
    `_CocycleArrays` with the leading axis k.

    Each `EQV` identity reads c1 - T_phi(c) = 0 with T_phi(c) free of c1,
    so the cocycles equivalent to c are exactly the orbit rows over every
    map.  T_phi(c) is the table evaluated with c1 = 0 (the c1 terms dead,
    as are those of c's all-zero tensors: `identities.live`) and negated,
    laid out as the c1 tensor; each term is one `bruteforce.contract_mod`
    with phi batched: the residue reader of `EQV`."""
    c1 = {name + "1": np.zeros_like(tensors[name]) for name in _CocycleArrays._fields}
    arrays = dict(tensors, phi=phi, **c1)
    zero = frozenset(name for name, a in arrays.items() if not a.any())
    parts = {}
    for identity in (i for group in identities.EQV for i in group.identities):
        (name, out), = [f for t in identity.terms for f in t.factors if f[0] in c1]
        total = 0
        for t in identities.live(identity, zero).terms:
            lead = "K" if any(f == "phi" for f, _ in t.factors) else ""
            spec = ",".join(("K" if f == "phi" else "") + idx for f, idx in t.factors)
            total = total - t.sign * bruteforce.contract_mod(
                f"{spec}->{lead}{out}", p, *(arrays[f] for f, _ in t.factors))
        name = name[:-1]
        parts[name] = np.broadcast_to(total % p, phi.shape[:1] + arrays[name].shape)
    return _CocycleArrays(**parts)


def _maps(digits: np.ndarray, n: int, m: int) -> np.ndarray:
    """The maps phi[k, t, q] = digits[k, q*m + t] (`_phi_from_params`)."""
    return digits.reshape(-1, n, m).transpose(0, 2, 1)


def _flat(c) -> np.ndarray:
    """Stacked arrays (a `_CocycleArrays`, or its first fields) as one
    residue row per leading index."""
    return np.concatenate([a.reshape(len(a), prod(a.shape[1:])) for a in c], axis=1)


def _equivalence_matrix(zero: NonAbelianCocycle) -> np.ndarray:
    """The matrix L of the omega/nu equivalence system over an abelian
    fiber: c1 ~ c2 via phi iff c2 - c1 = L phi on the nu and om rows of
    `_flat`, with phi's parameters in `_phi_from_params` order.  It depends
    only on the base and the actions, given as those of `zero`, a cocycle
    whose nu and om are zero: its orbit is linear in phi, so L is minus
    `_orbit` of `zero` at the n m unit maps."""
    n, m, p = zero.n, zero.m, zero.field.p
    unit = _maps(np.eye(n * m, dtype=np.int64), n, m)
    orbit = _orbit({name: residues(t) for name, t in zero.tensors().items()}, unit, p)
    return -_flat(orbit[:2]).T % p


def _row_keys(rows: np.ndarray, p: int) -> np.ndarray:
    """One sortable key per row of residues mod p, equal exactly where the
    rows are: the residues packed into int64 words, (p - 1).bit_length()
    bits each, by one product with their place values; one word is the
    key, more are read as one void per row."""
    bits = max(1, (p - 1).bit_length())
    per = 63 // bits
    width = rows.shape[1]
    words = max(1, -(-width // per))
    places = np.zeros((width, words), dtype=np.int64)
    col = np.arange(width)
    places[col, col // per] = 1 << (bits * (col % per))
    packed = rows @ places
    return packed[:, 0] if words == 1 else packed.view(np.dtype((np.void, 8 * words))).ravel()


def _orbit_lookup(tensors: dict, p: int, bound: int) -> tuple:
    """(phi, find) for the orbit of a cocycle c, given as the residue
    arrays `tensors`, over every map phi in `candidate_blocks` order (the
    bound checked): find(rows) gives, per cocycle over c's base and fiber
    given as its row of `_flat`, the index into phi of the first map with
    T_phi(c) equal to it (`_orbit`), or -1 where none is.  A row must hold
    the orbit's value where every orbit row does; the entries that vary
    over the orbit are keyed (`_row_keys`) and searched in its distinct
    rows, each kept with its first map."""
    n, m = len(tensors["bil"]), len(tensors["vbil"])
    blocks = bruteforce.candidate_blocks(p, n * m, bound, "maps")
    phi = _maps(np.concatenate([d for _, d in blocks]), n, m).astype(np.int64)
    rows = _flat(_orbit(tensors, phi, p))
    vary = (rows != rows[0]).any(axis=0)
    fixed = rows[0, ~vary]
    keys = _row_keys(rows[:, vary], p)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.r_[True, keys[1:] != keys[:-1]]
    keys, order = keys[first], order[first]

    def find(flat: np.ndarray) -> np.ndarray:
        want = _row_keys(flat[:, vary], p)
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        found = (flat[:, ~vary] == fixed).all(axis=1) & (keys[at] == want)
        return np.where(found, order[at], -1)
    return phi, find
