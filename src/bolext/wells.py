"""Automorphism pairs over an extension: the action on cocycles, inducibility,
lifts, the restriction map on total automorphisms, degree-one cocycles, and
the exactness verifier for the resulting four-term sequence

  1 -> Aut_fix(total) -> Aut_V(total) -> Aut(B) x Aut(V) -> classes

where Aut_V(total) are the automorphisms preserving the fiber, Aut_fix(total)
those restricting to the identity on both base and fiber, the middle arrow is
gamma |-> (p gamma s, gamma|V), and the last sends a pair to the class of the
acted cocycle minus the original.

Inducibility identity tags: ind-omega, ind-nu, ind-theta, ind-d, ind-mu.
Abelian-fiber gates reuse ind-theta / ind-d / ind-mu (they become free of the
unknown map there).  The identities and the degree-one cocycle conditions
are the tables `identities.IND` and `identities.Z1`, decided on the path of
`nonabelian`.

The class map is decided pair by pair by `wells_map` (`_wells_verdict`), and
for every pair at once, over any fiber, by `_class_verdicts`: the cocycles
equivalent to c are its orbit {T_phi(c)} over the maps phi: B -> V, made
once from `identities.EQV` (`nonabelian._orbit_lookup`), and a pair's class
vanishes exactly when its acted cocycle lies in that orbit.  Its witness is
re-checked off the table, by the shear of the glued totals."""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import bruteforce, identities
from .bol import (BolAlgebra, automorphism_int_arrays, int_matrix, is_morphism,
                  zero_algebra)
from .cohomology import Cochain2, Cochain3, _phi_from_params
from .core import (DEFAULT_ENUMERATION_BOUND, Decision, Status,
                   ValidationReport)
from .errors import (InternalConsistencyError, UnsupportedEnumerationError,
                     UsageError)
from .exactlin import Matrix, Subspace
from .extensions import (Extension, Section, _adapted_total, _canonical_section,
                         _read_cocycle, extract_cocycle, theta_map,
                         validate_extension)
from .identities import residues
from .nonabelian import (NonAbelianCocycle, _CocycleArrays, _equivalent_via,
                         _flat, _orbit_lookup, _phi_solutions, _row_keys,
                         _search_phi, _solve_for_phi, glue, solve_equivalence,
                         validate_nab_cocycle, validate_nab_full,
                         validate_nab_parts)
from .representation import Representation

__all__ = [
    "AutPair", "validate_aut_pair", "act_on_cocycle", "inducible_via",
    "solve_inducibility", "lift_automorphism", "wells_map", "WellsReport",
    "kappa", "z1_nab", "Z1Result", "s_map", "is_compatible_pair",
    "compatible_pairs", "verify_wells_exactness", "ExactnessReport",
]


@dataclass(frozen=True)
class AutPair:
    alpha: Matrix
    beta: Matrix


def validate_aut_pair(base: BolAlgebra, fiber: BolAlgebra, pair: AutPair):
    if pair.alpha.rows != base.dim or pair.alpha.cols != base.dim \
            or pair.beta.rows != fiber.dim or pair.beta.cols != fiber.dim:
        raise UsageError("automorphism pair has wrong shape")
    _require_automorphism(pair.alpha, base, "first", "base")
    _require_automorphism(pair.beta, fiber, "second", "fiber")


def _require_automorphism(f: Matrix, a: BolAlgebra, component, role):
    if not f.is_invertible() or not is_morphism(f, a, a):
        raise UsageError(f"{component} component is not an automorphism of the {role}")


def act_on_cocycle(c: NonAbelianCocycle, pair: AutPair) -> NonAbelianCocycle:
    """Transport the cocycle along (alpha, beta):

      nu'(x,y)    = beta nu(a^-1 x, a^-1 y)        omega' likewise
      mu'(x)      = beta mu(a^-1 x) beta^-1        theta', D' likewise
    """
    validate_aut_pair(c.base, c.fiber, pair)
    n, m = c.n, c.m
    field = c.field
    ainv = pair.alpha.inverse()
    binv = pair.beta.inverse()
    ac = [ainv.col(i) for i in range(n)]
    beta = pair.beta
    nu = Cochain2(n, m, field, tuple(
        tuple(beta.apply(c.nu.eval(ac[i], ac[j])) for j in range(n)) for i in range(n)))
    om = Cochain3(n, m, field, tuple(
        tuple(tuple(beta.apply(c.omega.eval(ac[i], ac[j], ac[k])) for k in range(n))
              for j in range(n)) for i in range(n)))
    mu = tuple(beta * c.mu_op(ac[i]) * binv for i in range(n))
    theta = tuple(tuple(beta * c.theta_op(ac[i], ac[j]) * binv for j in range(n))
                  for i in range(n))
    dd = tuple(tuple(beta * c.dd_op(ac[i], ac[j]) * binv for j in range(n))
               for i in range(n))
    return NonAbelianCocycle(c.base, c.fiber, nu, om, mu, theta, dd)


# ---------------------------------------------------------------------------
# inducibility

def _inducibility_tensors(c: NonAbelianCocycle, pair: AutPair) -> dict:
    """The tensors of `identities.IND` but phi."""
    return dict(c.tensors(), alpha=pair.alpha.entries, beta=pair.beta.entries)


def _inducibility_report(c: NonAbelianCocycle, pair: AutPair,
                         phi: Matrix) -> ValidationReport:
    return identities.report(identities.IND, c.field, phi=phi.entries,
                             **_inducibility_tensors(c, pair))


def inducible_via(e: Extension, s: Section, pair: AutPair,
                  phi: Matrix) -> ValidationReport:
    """Check the five inducibility identities for a given candidate map."""
    c = extract_cocycle(e, s)
    validate_aut_pair(c.base, c.fiber, pair)
    if phi.rows != c.m or phi.cols != c.n or phi.field != c.field:
        raise UsageError("candidate map has wrong shape")
    return _inducibility_report(c, pair, phi)


def _solve_inducibility_from_cocycle(c: NonAbelianCocycle, pair: AutPair,
                                     bound: int) -> Decision:
    n, m = c.n, c.m
    field = c.field
    if not c.fiber.is_abelian():
        return _search_phi(identities.IND, field, n, m, bound,
                           _inducibility_tensors(c, pair))
    system = identities.affine(identities.IND, field, n, m,
                               **_inducibility_tensors(c, pair))
    gates = [tag for tag in ("ind-theta", "ind-d", "ind-mu") if any(system[tag][1])]
    if gates:
        return Decision(Status.NONE, reason=min(gates))
    # past the gates their rows are 0 = 0
    phi = _solve_for_phi(field, n, m, system.values())
    if phi is not None:
        return Decision(Status.FOUND, witness=phi)
    tags = [tag for tag in ("ind-nu", "ind-omega")
            if _solve_for_phi(field, n, m, [system[tag]]) is None]
    return Decision(Status.NONE, reason="+".join(tags) or "ind-omega+ind-nu")


def solve_inducibility(e: Extension, pair: AutPair,
                       bound: int = DEFAULT_ENUMERATION_BOUND) -> Decision:
    """Decide whether the pair lifts to a fiber-preserving automorphism.

    Abelian fiber: the unknown-map-free identities act as gates, the rest is
    an affine system solved exactly over any field.  Otherwise exhaustive
    over GF(p) maps within the bound, else undecided.
    """
    c = theta_map(e)
    validate_aut_pair(c.base, c.fiber, pair)
    dec = _solve_inducibility_from_cocycle(c, pair, bound)
    if dec.found and not _inducibility_report(c, pair, dec.witness).valid:
        raise InternalConsistencyError("inducibility witness failed verification")
    return dec


def lift_automorphism(e: Extension, s: Section, pair: AutPair,
                      phi: Matrix) -> Matrix:
    """The total-algebra automorphism  a + s(x)  |->  beta(a) - phi(x) + s(alpha(x)).

    Requires `inducible_via(e, s, pair, phi)` to be valid.
    """
    rep = inducible_via(e, s, pair, phi)
    if not rep.valid:
        raise UsageError(f"pair is not induced by this map: {', '.join(rep.tags())}")
    field = e.field
    d = e.total.dim
    retract = e.left_inverse() * (Matrix.identity(field, d) - s.matrix * e.proj)
    gamma = (s.matrix * pair.alpha * e.proj
             + e.inj * pair.beta * retract
             - e.inj * phi * e.proj)
    if not gamma.is_invertible() or not is_morphism(gamma, e.total, e.total):
        raise InternalConsistencyError("constructed lift failed verification")
    if gamma * e.inj != e.inj * pair.beta or e.proj * gamma != pair.alpha * e.proj:
        raise InternalConsistencyError("constructed lift does not cover the pair")
    return gamma


# ---------------------------------------------------------------------------
# Wells map and the restriction map

@dataclass
class WellsReport:
    """Verdict on the class of (acted cocycle - original cocycle).

    status: zero | nonzero | undecided | incompatible.  A witness comparison
    map is attached when the class is zero.
    """

    pair: AutPair
    status: str
    witness: Optional[Matrix] = None
    reason: str = ""


def _wells_verdict(c: NonAbelianCocycle, pair: AutPair,
                   bound: int) -> WellsReport:
    if c.fiber.is_abelian():
        if not _pair_intertwines(c, pair):
            return WellsReport(pair, "incompatible",
                               reason="pair does not intertwine the actions")
    acted = act_on_cocycle(c, pair)
    dec = solve_equivalence(acted, c, bound)
    if dec.status is Status.FOUND:
        return WellsReport(pair, "zero", witness=dec.witness)
    if dec.status is Status.NONE:
        return WellsReport(pair, "nonzero", reason=dec.reason)
    return WellsReport(pair, "undecided", reason=dec.reason)


def _pair_intertwines(actions, pair: AutPair) -> bool:
    """beta mu(x) = mu(alpha x) beta and beta theta(x,y) = theta(alpha x,
    alpha y) beta on basis tuples, for the actions of a `Representation` or
    a `NonAbelianCocycle`."""
    n = pair.alpha.rows
    acol = [pair.alpha.col(i) for i in range(n)]
    beta = pair.beta
    for i in range(n):
        if beta * actions.mu[i] != actions.mu_op(acol[i]) * beta:
            return False
        for j in range(n):
            if beta * actions.theta[i][j] != actions.theta_op(acol[i], acol[j]) * beta:
                return False
    return True


def wells_map(e: Extension, pair: AutPair,
              bound: int = DEFAULT_ENUMERATION_BOUND) -> WellsReport:
    """Class verdict for the pair against the canonically extracted cocycle.

    For abelian fibers the acted pair is only a cocycle when the pair
    intertwines the actions, so that membership is gated first and reported
    as a distinct status.
    """
    c = theta_map(e)
    validate_aut_pair(c.base, c.fiber, pair)
    return _wells_verdict(c, pair, bound)


def kappa(e: Extension, s: Section, gamma: Matrix) -> AutPair:
    """(proj . gamma . section, gamma restricted to the fiber)."""
    _require_fiber_preserving(e, gamma)
    alpha = e.proj * gamma * s.matrix
    beta = e.left_inverse() * gamma * e.inj
    pair = AutPair(alpha, beta)
    try:
        validate_aut_pair(e.base, e.fiber, pair)
    except UsageError as exc:
        raise InternalConsistencyError(f"restriction is not a pair: {exc}") from exc
    return pair


def _require_fiber_preserving(e: Extension, gamma: Matrix):
    if gamma.rows != e.total.dim or gamma.cols != e.total.dim:
        raise UsageError("total map has wrong shape")
    if not gamma.is_invertible() or not is_morphism(gamma, e.total, e.total):
        raise UsageError("map is not an automorphism of the total algebra")
    fib = e.fiber_subspace()
    for a in range(e.m):
        if not fib.contains(gamma.apply(e.inj.col(a))):
            raise UsageError("map does not preserve the fiber")


# ---------------------------------------------------------------------------
# degree-one cocycles

@dataclass
class Z1Result:
    """Maps base -> fiber cut out by the annihilation, product and bracket
    conditions; a subspace when they are linear, an explicit list when
    enumerated, undecided otherwise."""

    kind: str
    subspace: Optional[Subspace] = None
    maps: Optional[list] = None
    reason: str = ""

    @property
    def dim(self) -> Optional[int]:
        return self.subspace.dim if self.subspace is not None else None


def z1_nab(c: NonAbelianCocycle, bound: int = DEFAULT_ENUMERATION_BOUND) -> Z1Result:
    """`_z1_cocycles`, for a cocycle that passes `validate_nab_full`: the
    cocycle suite and the Bol axioms of its base and fiber."""
    return _checked_z1(c, validate_nab_full(c), bound)


def _checked_z1(c: NonAbelianCocycle, rep: ValidationReport, bound: int) -> Z1Result:
    """`_z1_cocycles` of c, refused unless `rep`, c's checks, is valid."""
    if not rep.valid:
        raise UsageError("degree-one cocycles over an invalid cocycle: "
                         + ", ".join(rep.tags()))
    return _z1_cocycles(c, bound)


def _z1_cocycles(c: NonAbelianCocycle,
                 bound: int = DEFAULT_ENUMERATION_BOUND) -> Z1Result:
    """The kernel of the `Z1` system over an abelian fiber, its maps listed
    over GF(p) within the bound; otherwise the GF(p) maps that pass `Z1`,
    each checked again, or undecided.  Checks no axiom of c."""
    n, m = c.n, c.m
    field = c.field
    if c.fiber.is_abelian():
        system = identities.affine(identities.Z1, field, n, m, **c.tensors())
        space = Matrix(field, [row for a, _ in system.values() for row in a]).kernel()
        if not field.is_prime_field:
            return Z1Result("subspace", subspace=space)
        p, basis = field.p, residues(space.basis.entries).reshape(space.dim, n * m)
        try:
            vecs = [bruteforce.contract_mod("kd,dx->kx", p, digits, basis)
                    for _, digits in bruteforce.candidate_blocks(p, space.dim, bound, "maps")]
        except UnsupportedEnumerationError as exc:
            return Z1Result("subspace", subspace=space, reason=str(exc))
        return Z1Result("subspace", subspace=space, maps=[
            _phi_from_params(field, n, m, tuple(map(field.scalar, v)))
            for v in sorted(map(tuple, np.concatenate(vecs).tolist()))])
    try:
        maps = list(_phi_solutions(identities.Z1, field, n, m, bound, c.tensors()))
    except UnsupportedEnumerationError as exc:
        return Z1Result("undecided", reason=str(exc))
    if not all(identities.report(identities.Z1, field, phi=f.entries, **c.tensors()).valid
               for f in maps):
        raise InternalConsistencyError("degree-one cocycle failed verification")
    return Z1Result("list", maps=maps)


def s_map(e: Extension, s: Section, gamma: Matrix) -> Matrix:
    """phi(x) = s(x) - gamma(s(x)) in fiber coordinates; defined on the
    automorphisms restricting to the identity pair."""
    pair = kappa(e, s, gamma)
    idp = AutPair(Matrix.identity(e.field, e.n), Matrix.identity(e.field, e.m))
    if pair.alpha != idp.alpha or pair.beta != idp.beta:
        raise UsageError("map does not restrict to the identity pair")
    diff = s.matrix - gamma * s.matrix
    cols = [e.v_coords(diff.col(i)) for i in range(e.n)]
    return Matrix.from_cols(e.field, cols, rows=e.m)


# ---------------------------------------------------------------------------
# compatible pairs (abelian module setting)

def is_compatible_pair(b: BolAlgebra, r: Representation, pair: AutPair) -> bool:
    """beta theta(x,y) = theta(alpha x, alpha y) beta and
    beta mu(x) = mu(alpha x) beta on all basis tuples."""
    validate_aut_pair(b, zero_algebra(b.field, r.module_dim), pair)
    return _pair_intertwines(r, pair)


def compatible_pairs(b: BolAlgebra, r: Representation,
                     budget: int = DEFAULT_ENUMERATION_BOUND) -> list:
    """All compatible pairs over a prime field, alpha-major order: the
    automorphisms of both sides checked once (`_checked_automorphisms`), the
    intertwining decided for a chunk of pairs at a time (`_intertwines`)."""
    field = b.field
    if not field.is_prime_field:
        raise UnsupportedEnumerationError("pair enumeration needs a finite field")
    module = zero_algebra(field, r.module_dim)
    alphas, _ = _checked_automorphisms(automorphism_int_arrays(b, budget), b,
                                       "first", "base")
    betas, beta_invs = _checked_automorphisms(automorphism_int_arrays(module, budget),
                                              module, "second", "fiber")
    # the actions of r in the layout of a cocycle's (nu and omega unused)
    actions = _CocycleArrays(None, None, *map(residues, r.action_entries().values()))
    alpha_mats = [int_matrix(field, g) for g in alphas]
    beta_mats = [int_matrix(field, g) for g in betas]
    nb, total = len(betas), len(alphas) * len(betas)
    out = []
    for start in range(0, total, _VERDICT_CHUNK):
        ia, ib = np.divmod(np.arange(start, min(start + _VERDICT_CHUNK, total)), nb)
        span, which = _alpha_run(ia)
        keep = _intertwines(actions, alphas[span], betas[ib], beta_invs[ib], field.p, which)
        out += [AutPair(alpha_mats[i], beta_mats[j]) for i, j in zip(ia[keep], ib[keep])]
    return out


# ---------------------------------------------------------------------------
# class verdicts of every pair at once

_INCOMPATIBLE, _NONZERO, _ZERO = range(3)
_VERDICT_CHUNK = 1 << 12


def _automorphism_mask(mats: np.ndarray, bil, tri, p):
    """(which stacked residue matrices are automorphisms of the structure
    (bil, tri), their inverses): one batched inverse, then one
    `identities.MOR` pass over the invertible matrices."""
    invertible, inverses = bruteforce.inverse_mod(mats, p)
    return bruteforce.identity_mask(identities.MOR, p, {"f": mats},
                                    {"bil": bil, "tri": tri}, ok=invertible), inverses


def _checked_automorphisms(auts: np.ndarray, a: BolAlgebra, component, role):
    """(automorphisms, inverses) as residue arrays; every matrix is checked,
    as `validate_aut_pair` checks a component of every pair, in one pass."""
    auts = np.asarray(auts, dtype=np.int64)
    ok, invs = _automorphism_mask(auts, residues(a.bil), residues(a.tri), a.field.p)
    if not ok.all():
        raise UsageError(f"{component} component is not an automorphism of the {role}")
    return auts, invs


# the contractions that move the base arguments of nu, omega, mu and of a
# grid (theta, D) by one matrix ainv[k] per k, one argument at a time
_NU = ("kqx,qrs->kxrs", "kry,kxrs->kxys")
_OM = ("kqx,qrus->kxrus", "kry,kxrus->kxyus", "kuz,kxyus->kxyzs")
_MU = ("kqx,qst->kxst",)
_GRID = ("kqx,qrst->kxrst", "kry,kxrst->kxyst")


def _moved(a, ainv, p, specs):
    """a with its base arguments moved by each matrix ainv[k]: the
    contractions `specs` in turn.  An all-zero a stays zero, unmoved."""
    if not a.any():
        return np.broadcast_to(a, ainv.shape[:1] + a.shape)
    for spec in specs:
        a = bruteforce.contract_mod(spec, p, ainv, a)
    return a


def _transport_grid(ainv, grid, p):
    """g'(x,y) = g(a^-1 x, a^-1 y) for a grid of matrices, per matrix of ainv."""
    return _moved(grid, ainv, p, _GRID)


def _conjugate(beta, mats, binv, p):
    """beta M beta^-1 for a stack of matrices M[k, ..., s, t] per pair: two
    contractions, each reduced mod p."""
    f = bruteforce.contract_mod
    flat = mats.reshape(beta.shape[:1] + (-1,) + mats.shape[-2:])
    return f("kas,kjsb->kjab", p, beta, f("kjst,ktb->kjsb", p, flat, binv)).reshape(mats.shape)


def _transported(c: _CocycleArrays, ainv, p) -> _CocycleArrays:
    """c with its base arguments moved by alpha^-1 alone, once per matrix
    ainv[j]: nu(a^-1 x, a^-1 y), omega likewise, mu(a^-1 x), theta and D
    (`_moved`)."""
    return _CocycleArrays(*(_moved(a, ainv, p, specs)
                            for a, specs in zip(c, (_NU, _OM, _MU, _GRID, _GRID))))


def _act(c: _CocycleArrays, ainv, beta, binv, p, which) -> _CocycleArrays:
    """`act_on_cocycle` on residue arrays, one pair per leading index of
    beta.  The transport by alpha^-1 is made once per matrix of ainv, and
    pair k reads ainv[which[k]].  An all-zero action tensor of c is not
    conjugated: beta 0 beta^-1 = 0."""
    moved = _transported(c, ainv, p).take(which)
    f = bruteforce.contract_mod
    return _CocycleArrays(
        f("kst,kxyt->kxys", p, beta, moved.nu),
        f("kst,kxyzt->kxyzs", p, beta, moved.om),
        *(_conjugate(beta, a, binv, p) if action.any() else a
          for a, action in zip(moved[2:], c[2:])))


def _intertwines(c: _CocycleArrays, alpha, beta, binv, p, which) -> np.ndarray:
    """`_pair_intertwines` per pair: beta mu(x) beta^-1 =
    mu(alpha x) and beta theta(x,y) beta^-1 = theta(alpha x, alpha y).  The
    actions are moved by alpha once per matrix of alpha, and pair k reads
    alpha[which[k]].  An all-zero action is skipped: every pair
    intertwines it."""
    k = beta.shape[0]
    ok = np.ones(k, dtype=bool)
    if c.mu.any():
        mu = _conjugate(beta, np.broadcast_to(c.mu, (k,) + c.mu.shape), binv, p)
        moved_mu = bruteforce.contract_mod("kqx,qst->kxst", p, alpha, c.mu)[which]
        ok &= (mu == moved_mu).all(axis=(1, 2, 3))
    if c.theta.any():
        theta = _conjugate(beta, np.broadcast_to(c.theta, (k,) + c.theta.shape), binv, p)
        ok &= (theta == _transport_grid(alpha, c.theta, p)[which]).all(axis=(1, 2, 3, 4))
    return ok


def _alpha_run(ia):
    """(the slice of alphas, each pair's index into it) of a chunk of pairs
    read alpha-major: its alphas are one run, each moved once."""
    return slice(ia[0], ia[-1] + 1), ia - ia[0]


def _shears_hold(tensors: dict, source, members: _CocycleArrays, phi, p) -> bool:
    """Whether every shear [[I, 0], [phi[k], I]] maps the glued total
    `source` of a cocycle into the glued total of members[k] (`glue`, on the
    base and fiber `tensors` of the cocycle), by the two-structure morphism
    identities `identities.HOM`: a route to the equivalence of the two
    cocycles via phi[k] that does not read `identities.EQV`."""
    n = tensors["bil"].shape[0]
    target = glue(tensors["bil"], tensors["tri"], tensors["vbil"], tensors["vtri"],
                  *members, p=p)
    shears = np.tile(np.eye(len(source[0]), dtype=np.int64), (len(phi), 1, 1))
    shears[:, n:, :n] = phi
    return bool(bruteforce.identity_mask(
        identities.HOM, p, {"f": shears, "bil2": target[0], "tri2": target[1]},
        {"bil": source[0], "tri": source[1]}).all())


def _class_verdicts(c: NonAbelianCocycle, base, fiber, bound: int):
    """Class verdicts of every pair of base x fiber automorphisms (each an
    (automorphisms, inverses) pair from `_checked_automorphisms`),
    alpha-major, against a cocycle over a prime field, any fiber.

    Decides what `_wells_verdict` decides pair by pair, by orbit lookup:
    the cocycles equivalent to c are its orbit {T_phi(c)} over the maps
    phi: B -> V (`_orbit_lookup`), made once.  A pair's class vanishes
    exactly when its acted cocycle (`_act`) lies in the orbit, and its
    witness is the first map that reaches it.  Over an abelian fiber a pair
    that does not intertwine the actions (`_intertwines`) is incompatible.
    Every witness is checked again, once per distinct acted cocycle and
    witness, by routes that do not read `identities.EQV`: the shear from
    the glued total of c to that of the acted cocycle (`_shears_hold`), and
    over an abelian fiber `_equivalent_via`.
    Yields (first pair index, status codes, witness maps phi[k, t, q], zero
    unless the class vanishes) per chunk of `_VERDICT_CHUNK` pairs.  The
    codes are `_INCOMPATIBLE` (0), `_NONZERO` (1) and `_ZERO` (2): the pair
    does not intertwine the actions, its class is nonzero, or it vanishes.
    """
    p = c.field.p
    (alphas, alpha_invs), (betas, beta_invs) = base, fiber
    tensors = {name: residues(t) for name, t in c.tensors().items()}
    arr = _CocycleArrays(*(tensors[name] for name in _CocycleArrays._fields))
    maps, find = _orbit_lookup(tensors, p, bound)
    source = glue(**tensors, p=p)
    abelian = c.fiber.is_abelian()
    nb = len(betas)
    total = len(alphas) * nb
    for start in range(0, total, _VERDICT_CHUNK):
        ia, ib = np.divmod(np.arange(start, min(start + _VERDICT_CHUNK, total)), nb)
        beta, binv = betas[ib], beta_invs[ib]
        span, which = _alpha_run(ia)
        acted = _act(arr, alpha_invs[span], beta, binv, p, which)
        rows = _flat(acted)
        hit = find(rows)
        status = np.where(hit >= 0, _ZERO, _NONZERO)
        if abelian:
            status[~_intertwines(arr, alphas[span], beta, binv, p, which)] = _INCOMPATIBLE
        zero = status == _ZERO
        phi = maps[hit] * zero[:, None, None]
        # pairs with the same acted cocycle and witness share one check
        keys = _row_keys(np.concatenate([rows, phi.reshape(len(phi), -1)], axis=1)[zero], p)
        once = np.flatnonzero(zero)[np.unique(keys, return_index=True)[1]]
        members = acted.take(once)
        if not (_shears_hold(tensors, source, members, phi[once], p)
                and (not abelian or _equivalent_via(members, arr, phi[once], tensors["bil"],
                                                    tensors["tri"], p).all())):
            raise InternalConsistencyError("batched class witness failed verification")
        yield start, status, phi


# ---------------------------------------------------------------------------
# exactness verification

class _Scanned(NamedTuple):
    """What the exactness report reads of Aut_V(total)."""

    count: int           # |Aut_V(total)|
    hits: np.ndarray     # per pair of base and fiber automorphisms: in the image of kappa
    kernel: np.ndarray   # the members restricting to the identity pair, on the total


def _fiber_preserving_automorphisms(e: Extension, t: Matrix, adapted: BolAlgebra,
                                    alphas, betas, bound: int) -> _Scanned:
    """Aut_V(total) in the adapted basis T with total `adapted`
    (`_adapted_total`), streamed from `bruteforce.triangular_arrays` of the
    base and fiber groups `alphas` and `betas`, kept as its count, the pairs
    it hits, and its kernel members moved to the total, T G T^-1.  Every
    member is checked to keep the fiber in place, slice by slice, as (P T)
    G (T^-1 I) = 0 for the projection P and the injection I.  The basis is
    checked once to have P T = [I | 0] and T^-1 I = [0; I], so that check
    reads G[:, :n, n:] = 0 off each member, with no product.  Complete: in
    the basis T a map keeping the fiber is block triangular, and the
    diagonal blocks of an automorphism are those it induces on the quotient
    B and on the ideal V."""
    p, n = e.field.p, e.n
    f = bruteforce.contract_mod
    tt, tinv = residues(t.entries), residues(t.inverse().entries)
    eye = np.eye(e.total.dim, dtype=np.int64)
    if not (np.array_equal(f("qx,xy->qy", p, residues(e.proj.entries), tt), eye[:n])
            and np.array_equal(f("xy,ya->xa", p, tinv, residues(e.inj.entries)), eye[:, n:])):
        raise InternalConsistencyError("the adapted basis does not split off the fiber")
    diagonal = np.zeros(eye.shape, dtype=bool)
    diagonal[:n, :n] = diagonal[n:, n:] = True
    count, hits, kernel = 0, np.zeros(len(alphas) * len(betas), dtype=bool), [eye[None][:0]]
    for part in bruteforce.triangular_arrays(residues(adapted.bil), residues(adapted.tri),
                                             alphas, betas, p, bound):
        if part.blocks[:, :n, n:].any():
            raise InternalConsistencyError("factored scan returned a map moving the fiber")
        count += len(part.blocks)
        hits[part.pairs] = True
        kernel.append(part.blocks[(part.blocks[:, diagonal] == eye[diagonal]).all(axis=1)])
    kernel = np.concatenate(kernel).astype(np.int64)
    return _Scanned(count, hits, f("xy,byz,zw->bxw", p, tt, kernel, tinv))


def _s_map_images(e: Extension, s: Section, gammas: np.ndarray) -> np.ndarray:
    """`s_map(e, s, gamma)` of every fiber-preserving map gammas[k], as
    residue arrays phi[k, t, q], with the checks `s_map` makes run on the
    whole stack: each gamma is an automorphism of the total restricting to
    the identity pair (P gamma S = I and L gamma I = I, for the projection
    P, the injection I, the section S and the left inverse L of I), and
    each column of S - gamma S lies in the fiber, with fiber coordinates
    L (S - gamma S)."""
    p = e.field.p
    f = bruteforce.contract_mod
    proj, inj, sec, retract = (residues(a.entries)
                               for a in (e.proj, e.inj, s.matrix, e.left_inverse()))
    is_aut, _ = _automorphism_mask(gammas, residues(e.total.bil),
                                   residues(e.total.tri), p)
    alpha = f("qx,kxy,yi->kqi", p, proj, gammas, sec)
    beta = f("ax,kxy,yb->kab", p, retract, gammas, inj)
    diff = (sec - f("kxy,yi->kxi", p, gammas, sec)) % p
    coords = f("ax,kxi->kai", p, retract, diff)
    if not (is_aut.all() and (alpha == np.eye(e.n, dtype=np.int64)).all()
            and (beta == np.eye(e.m, dtype=np.int64)).all()
            and not f("qx,kxi->kqi", p, proj, diff).any()
            and (f("xa,kai->kxi", p, inj, coords) == diff).all()):
        raise InternalConsistencyError("kernel map failed the section-difference checks")
    return coords


@dataclass
class ExactnessReport:
    aut_v_total: int
    aut_fixing_both: int
    z1_count: int
    image_kappa: int
    kernel_wells: int
    pairs_total: int
    aut_base: int
    aut_fiber: int
    incompatible_pairs: int
    kernel_kappa_equals_inclusion_image: bool
    kernel_wells_equals_kappa_image: bool
    s_map_bijective: bool
    z1_addition_closed: bool
    product_consistency: bool

    @property
    def all_verdicts(self) -> bool:
        return (self.kernel_kappa_equals_inclusion_image
                and self.kernel_wells_equals_kappa_image
                and self.s_map_bijective and self.z1_addition_closed
                and self.product_consistency)

    def as_dict(self):
        """The first nine fields as "cardinalities" (`z1_count` as "z1"), the
        rest as "verdicts", in field order."""
        items = [(f.name.removesuffix("_count"), getattr(self, f.name)) for f in fields(self)]
        return {"cardinalities": dict(items[:9]), "verdicts": dict(items[9:])}


def _rows(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a stack of residue arrays, as sorted rows."""
    rows = a.reshape(len(a), -1)
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def verify_wells_exactness(e: Extension,
                           bound: int = DEFAULT_ENUMERATION_BOUND) -> ExactnessReport:
    """Brute-force the full sequence over a prime field.

    Scans Aut(B) and Aut(V) and checks every member once; Aut_V(total) is
    the factored scan of their |Aut B| |Aut V| p^(nm) block-triangular maps,
    streamed (`_fiber_preserving_automorphisms`): it is kept as its count,
    the pairs it hits, which are the image of the restriction map, and its
    kernel members.  The class map is decided on all pairs by one orbit
    pass, whatever the fiber (`_class_verdicts`).  Checks: the kernel of
    the restriction map is exactly the image of the degree-one cocycles,
    the kernel of the class map is exactly the image of the restriction map
    over all pairs, and the section-difference map is a bijection onto the
    degree-one cocycles.
    """
    if not e.field.is_prime_field:
        raise UnsupportedEnumerationError("exactness verification needs a finite field")
    if not validate_extension(e).valid:
        raise UsageError("exactness verification of an invalid extension")
    p = e.field.p
    s = _canonical_section(e)
    t, adapted = _adapted_total(e, s)
    c = _read_cocycle(e, adapted)
    rep = validate_nab_parts(c)  # the cocycle suite is checked before Z1
    if not rep.valid:
        raise UsageError("exactness verification over an invalid cocycle: "
                         + ", ".join(rep.tags()))
    base = _checked_automorphisms(automorphism_int_arrays(e.base, bound), e.base,
                                  "first", "base")
    fiber = _checked_automorphisms(automorphism_int_arrays(e.fiber, bound), e.fiber,
                                   "second", "fiber")

    scanned = _fiber_preserving_automorphisms(e, t, adapted, base[0], fiber[0], bound)
    image_kappa = np.flatnonzero(scanned.hits)
    ker_gammas = scanned.kernel

    z1 = _checked_z1(c, validate_nab_cocycle(c), bound)
    if z1.maps is None:
        raise UnsupportedEnumerationError(z1.reason)
    z1_maps = residues([phi.entries for phi in z1.maps]).reshape(-1, e.m, e.n)
    z1_rows = _rows(z1_maps)

    # section-difference map on the kernel subgroup
    s_images = _rows(_s_map_images(e, s, ker_gammas))
    s_bij = len(s_images) == len(ker_gammas) and np.array_equal(s_images, z1_rows)

    # inclusion image: each degree-one cocycle yields the shear
    #   a + s(x) |-> a - phi(x) + s(x)
    shears = (np.eye(e.total.dim, dtype=np.int64)
              - bruteforce.contract_mod("xt,ktq,qy->kxy", p, residues(e.inj.entries),
                                        z1_maps, residues(e.proj.entries))) % p
    is_aut, _ = _automorphism_mask(shears, residues(e.total.bil),
                                   residues(e.total.tri), p)
    ker_eq_incl = bool(is_aut.all()) and np.array_equal(_rows(shears), _rows(ker_gammas))

    # kernel of the class map over all pairs, alpha-major
    verdicts = _class_verdicts(c, base, fiber, bound)
    status = np.concatenate([status for _, status, _ in verdicts])
    zero_pairs = np.flatnonzero(status == _ZERO)

    # the sums of degree-one cocycles add no row to them
    sums = ((z1_maps[:, None] + z1_maps[None]) % p).reshape(-1, e.m, e.n)
    closed = len(_rows(np.concatenate([z1_maps, sums]))) == len(z1_rows)

    return ExactnessReport(
        aut_v_total=scanned.count,
        aut_fixing_both=len(ker_gammas),
        z1_count=len(z1.maps),
        image_kappa=len(image_kappa),
        kernel_wells=len(zero_pairs),
        pairs_total=len(status),
        aut_base=len(base[0]),
        aut_fiber=len(fiber[0]),
        incompatible_pairs=int((status == _INCOMPATIBLE).sum()),
        kernel_kappa_equals_inclusion_image=ker_eq_incl,
        kernel_wells_equals_kappa_image=np.array_equal(zero_pairs, image_kappa),
        s_map_bijective=s_bij,
        z1_addition_closed=closed,
        product_consistency=len(ker_gammas) * len(image_kappa) == scanned.count,
    )
