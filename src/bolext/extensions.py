"""Extensions as first-class data: short exact sequences of Bol algebras,
canonical sections, cocycle extraction, equivalence, and classification.

An extension packs the fiber V, the total algebra, the base B, an injection
matrix (columns = images of fiber basis) and a projection matrix.  Validation
tags: inj-shape, inj-morphism, inj-injective, proj-morphism, proj-surjective,
exactness, dims.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import bruteforce, identities
from .bol import BolAlgebra, h3, is_morphism, z2, zero_algebra
from .cohomology import Cochain2, Cochain3, CochainCoords
from .core import (DEFAULT_ENUMERATION_BOUND, Decision, Status,
                   ValidationReport, Variant)
from .errors import (InternalConsistencyError, UnsupportedEnumerationError,
                     UsageError)
from .exactlin import Matrix, Subspace, kernel_basis, vec_is_zero
from .nonabelian import (NonAbelianCocycle, _blocks, _CocycleArrays,
                         _cocycle_arrays, _equivalence_matrix, _equivalent_via,
                         _flat, build_extension_algebra,
                         solve_equivalence, validate_nab_parts)
from .identities import residues, scalars
from .representation import Representation

__all__ = [
    "Extension", "Section", "validate_extension", "canonical_section",
    "make_section", "extract_cocycle", "as_extension", "semidirect_extension",
    "extensions_equivalent", "theta_map", "classify_corpus", "classify_rows",
    "candidate_rows", "e_h3",
]


@dataclass(frozen=True)
class Extension:
    fiber: BolAlgebra
    total: BolAlgebra
    base: BolAlgebra
    inj: Matrix
    proj: Matrix

    @property
    def n(self):
        return self.base.dim

    @property
    def m(self):
        return self.fiber.dim

    @property
    def field(self):
        return self.base.field

    def fiber_subspace(self) -> Subspace:
        cols = [self.inj.col(j) for j in range(self.inj.cols)]
        return Subspace.from_vectors(self.field, self.total.dim, cols)

    def left_inverse(self) -> Matrix:
        """A left inverse of the injection, from its pivot rows."""
        # pivot rows of inj = pivot columns of its transpose
        _, rank, pivots = self.inj.transpose().rref()
        if rank != self.m:
            raise UsageError("injection is not injective")
        rows = sorted(pivots)
        sub = Matrix(self.field, [self.inj.entries[r] for r in rows])
        inv = sub.inverse()
        if inv is None:
            raise UsageError("injection is not injective")
        sel = Matrix(self.field, [[self.field.one if c == r else self.field.zero
                                   for c in range(self.total.dim)] for r in rows],
                     cols=self.total.dim)
        return inv * sel

    def v_coords(self, vec) -> tuple:
        """Fiber coordinates of a total-algebra value in ker(proj)."""
        if not vec_is_zero(self.proj.apply(vec)):
            raise InternalConsistencyError(
                "value expected in the kernel of the projection escapes it")
        out = self.left_inverse().apply(vec)
        if self.inj.apply(out) != tuple(vec):
            raise InternalConsistencyError("kernel value outside the injection image")
        return out


@dataclass(frozen=True)
class Section:
    """Linear right inverse of the projection (never required multiplicative)."""

    matrix: Matrix


def validate_extension(e: Extension) -> ValidationReport:
    rep = ValidationReport()
    n, m, d = e.n, e.m, e.total.dim
    if d != n + m:
        rep.add("dims", (), ())
        return rep
    if e.inj.rows != d or e.inj.cols != m or e.proj.rows != n or e.proj.cols != d:
        rep.add("inj-shape", (), ())
        return rep
    if not is_morphism(e.inj, e.fiber, e.total):
        rep.add("inj-morphism", (), ())
    if e.inj.rank() != m:
        rep.add("inj-injective", (), ())
    if not is_morphism(e.proj, e.total, e.base):
        rep.add("proj-morphism", (), ())
    if e.proj.rank() != n:
        rep.add("proj-surjective", (), ())
    if e.fiber_subspace() != kernel_basis(e.proj):
        rep.add("exactness", (), ())
    return rep


def canonical_section(e: Extension) -> Section:
    """Section through the pivot complement of ker(proj): each base basis
    vector maps to its unique preimage supported on the complement columns."""
    if not validate_extension(e).valid:
        raise UsageError("canonical section of an invalid extension")
    return _canonical_section(e)


def _canonical_section(e: Extension) -> Section:
    """`canonical_section` of an extension its caller has validated."""
    ker = kernel_basis(e.proj)
    pivot_cols = set()
    for row in ker.basis.entries:
        pivot_cols.add(next(i for i, a in enumerate(row) if a))
    complement = [c for c in range(e.total.dim) if c not in pivot_cols]
    sub = Matrix(e.field, [[e.proj.entries[r][c] for c in complement]
                           for r in range(e.n)])
    inv = sub.inverse()
    if inv is None:
        raise InternalConsistencyError("pivot complement does not split the projection")
    emb = Matrix(e.field, [[e.field.one if complement[r] == rr else e.field.zero
                            for r in range(len(complement))]
                           for rr in range(e.total.dim)], cols=len(complement))
    s = emb * inv
    return Section(s)


def make_section(e: Extension, matrix: Matrix) -> Section:
    if matrix.rows != e.total.dim or matrix.cols != e.n or matrix.field != e.field:
        raise UsageError("section matrix has wrong shape")
    if e.proj * matrix != Matrix.identity(e.field, e.n):
        raise UsageError("matrix is not a right inverse of the projection")
    return Section(matrix)


def extract_cocycle(e: Extension, s: Section) -> NonAbelianCocycle:
    """The quintuple carried by a section:

      nu(x,y)      = s(x)*s(y) - s(x*y)
      omega(x,y,z) = [s(x),s(y),s(z)] - s([x,y,z])
      theta(x,y)a  = [i(a), s(x), s(y)]
      D(x,y)a      = [s(x), s(y), i(a)]
      mu(x)a       = s(x)*i(a)

    read off the total rewritten in the adapted basis [s | i], where it is
    the glue of this quintuple (values must land in ker proj).  The
    injection must map into ker proj.
    """
    return _read_cocycle(e, _adapted_total(e, s)[1])


def _adapted_total(e: Extension, s: Section) -> tuple:
    """(T, the total in the basis T) for the adapted basis T = [s | i]: the
    section's columns, then the injection's."""
    if e.proj * s.matrix != Matrix.identity(e.field, e.n):
        raise UsageError("not a section of the projection")
    if not (e.proj * e.inj).is_zero():
        raise UsageError("injection leaves the kernel of the projection")
    t = Matrix.from_cols(e.field, [s.matrix.col(i) for i in range(e.n)]
                         + [e.inj.col(a) for a in range(e.m)])
    return t, e.total.conjugate(t)


def _read_cocycle(e: Extension, adapted: BolAlgebra) -> NonAbelianCocycle:
    """The cocycle read off `adapted`, the total in the adapted basis, from
    the blocks `glue` writes.

    nu and omega are read at i < j only, as `Cochain2.from_pairs` takes
    them.  Each value read must lie in ker(proj), so have no base
    coordinates: those of nu and omega are s(x*y) and s([x,y,z])."""
    n, m, field = e.n, e.m, e.field
    bil, tri = np.array(adapted.bil, dtype=object), np.array(adapted.tri, dtype=object)
    read = {name: v for name, sign, v in _blocks(bil, tri, n) if sign > 0}
    low = {name: v for name, sign, v in _blocks(bil, tri, n, slice(None, n)) if sign > 0}
    i, j = np.triu_indices(n, 1)
    escaped = (low["nu"][i, j] - np.array(e.base.bil, dtype=object)[i, j],
               low["om"][i, j] - np.array(e.base.tri, dtype=object)[i, j],
               low["mu"], low["theta"], low["dd"])
    if any(a.any() for a in escaped):
        raise InternalConsistencyError(
            "extracted value escapes the kernel of the projection")
    pairs = list(zip(i.tolist(), j.tolist()))
    nu = Cochain2.from_pairs(n, m, field, {(x, y): read["nu"][x, y] for x, y in pairs})
    om = Cochain3.from_triples(n, m, field, {(x, y, z): read["om"][x, y, z]
                                             for x, y in pairs for z in range(n)})
    mu = tuple(Matrix(field, a) for a in read["mu"])
    theta, dd = (tuple(tuple(Matrix(field, a) for a in row) for row in read[name])
                 for name in ("theta", "dd"))
    return NonAbelianCocycle(e.base, e.fiber, nu, om, mu, theta, dd)


def as_extension(c: NonAbelianCocycle) -> Extension:
    """The glued algebra of c as an extension with the standard embedding."""
    n = c.n
    idt = Matrix.identity(c.field, n + c.m)
    return Extension(c.fiber, build_extension_algebra(c), c.base,
                     Matrix(c.field, [row[n:] for row in idt.entries]),
                     Matrix(c.field, idt.entries[:n]))


def semidirect_extension(a: BolAlgebra, r: Representation) -> Extension:
    """The split extension of a by its module (fiber taken abelian)."""
    return as_extension(NonAbelianCocycle.split(a, r))


def e_h3(field) -> Extension:
    """The fixture 0 -> span(e3) -> h3 -> z2 -> 0."""
    inj = Matrix.from_int_rows(field, [[0], [0], [1]])
    proj = Matrix.from_int_rows(field, [[1, 0, 0], [0, 1, 0]])
    return Extension(zero_algebra(field, 1), h3(field), z2(field), inj, proj)


def extensions_equivalent(e1: Extension, e2: Extension,
                          bound: int = DEFAULT_ENUMERATION_BOUND) -> Decision:
    """Search for an equivalence map between two extensions of the same base
    by the same fiber.

    The commuting constraints force the map to fix the fiber pointwise and
    cover the identity of the base, leaving only a base-to-fiber block; that
    block exists iff the extracted cocycles are equivalent, and the witness
    map is assembled from it and verified.
    """
    if e1.base != e2.base or e1.fiber != e2.fiber:
        raise UsageError("extensions must share base and fiber")
    for e in (e1, e2):
        if not validate_extension(e).valid:
            raise UsageError("equivalence of invalid extensions")
    t1, adapted1 = _adapted_total(e1, _canonical_section(e1))
    t2, adapted2 = _adapted_total(e2, _canonical_section(e2))
    c1, c2 = _read_cocycle(e1, adapted1), _read_cocycle(e2, adapted2)
    dec = solve_equivalence(c1, c2, bound)
    if dec.status is not Status.FOUND:
        return dec
    # s1(x) + i(a)  |->  s2(x) + i(a) - i(phi(x))
    f = t2 * t1.inverse() - e2.inj * dec.witness * e1.proj
    if not f.is_invertible() or not is_morphism(f, e1.total, e2.total) \
            or f * e1.inj != e2.inj or e2.proj * f != e1.proj:
        raise InternalConsistencyError(
            "equivalence witness failed verification; the totals carry "
            "fiber products that the cocycle data does not see")
    return Decision(Status.FOUND, witness=f)


def theta_map(e: Extension) -> NonAbelianCocycle:
    """Classifying cocycle of the extension via the canonical section."""
    if not validate_extension(e).valid:
        raise UsageError("classifying map of an invalid extension")
    return extract_cocycle(e, _canonical_section(e))


def classify_corpus(base: BolAlgebra, fiber: BolAlgebra, actions=None,
                    bound: int = DEFAULT_ENUMERATION_BOUND,
                    variant: Variant = Variant.CORRECTED):
    """`classify_rows`, each representative decoded: (class count, list of
    one representative per class, valid count)."""
    zero, index, valid_count = classify_rows(base, fiber, actions, bound, variant)
    reps = _decoded(zero, *candidate_rows(zero, index))
    return len(reps), reps, valid_count


def classify_rows(base: BolAlgebra, fiber: BolAlgebra, actions=None,
                  bound: int = DEFAULT_ENUMERATION_BOUND,
                  variant: Variant = Variant.CORRECTED):
    """Enumerate all valid cocycles with the given fixed action maps over a
    prime field and partition them into equivalence classes.

    Every fiber is classed on residue arrays by class code
    (`_coset_classes`), with nothing decoded: the classes are the cosets of
    the image of the maps that keep the actions.  The first valid cocycle
    of each class, in candidate order, represents it.

    Returns (the zero cocycle with the actions, the representatives'
    candidate indices, ascending, valid count); `candidate_rows` rebuilds
    their residue rows.
    """
    field = base.field
    if not field.is_prime_field:
        raise UnsupportedEnumerationError("classification needs a finite field")
    zero = NonAbelianCocycle.zero(base, fiber)
    rep = validate_nab_parts(zero)
    if not rep.valid:
        raise UsageError("classification over a non-Bol base or fiber: "
                         + ", ".join(rep.tags()))
    if actions is not None:
        zero = NonAbelianCocycle(base, fiber, zero.nu, zero.omega, *actions)
    coords = CochainCoords(base.dim, fiber.dim, field)
    valid = _valid_cocycles(zero, variant, bruteforce.candidate_blocks(
        field.p, coords.total, bound, "cocycles"))
    return (zero, *_coset_classes(zero, valid))


def candidate_rows(zero: NonAbelianCocycle, index) -> tuple:
    """The skew residue arrays nu[k, x, y, s] and om[k, x, y, z, s] of the
    candidates `index` of the stream of `classify_rows` over the base and
    fiber of `zero`: candidate k is the digit string of k over
    `CochainCoords`."""
    n, m, p = zero.n, zero.m, zero.field.p
    width = CochainCoords(n, m, zero.field).total
    return _cochains(bruteforce.digit_rows(np.asarray(index, dtype=np.int64), p, width,
                                           np.int64), n, m, p)


def _cochains(digits, n: int, m: int, p: int) -> tuple:
    """(nu, om), skew, of (nu, omega) digit rows laid out as `CochainCoords`."""
    split = n * (n - 1) // 2 * m
    return (bruteforce.skew_from_params(digits[:, :split], n, (m,), p),
            bruteforce.skew_from_params(digits[:, split:], n, (n, m), p))


def _candidate_digits(nu, om) -> np.ndarray:
    """The digit rows of stacked skew cochains, the inverse of `_cochains`:
    their entries at the pairs i < j, laid out as `CochainCoords`."""
    i, j = np.triu_indices(nu.shape[1], 1)
    return np.concatenate([a[:, i, j].reshape(len(a), len(i) * prod(a.shape[3:]))
                           for a in (nu, om)], axis=1)


def _valid_cocycles(zero: NonAbelianCocycle, variant, blocks):
    """Per block (start, (nu, omega) digit rows) that `blocks` streams as
    `candidate_blocks` does over `CochainCoords`, the candidate indices and
    the skew residue arrays nu[k, x, y, s] and om[k, x, y, z, s] of its rows
    that pass `validate_nab_cocycle` with the actions of `zero`, if any: one
    `identity_mask` pass of the variant's `NAB` suite per block."""
    n, m, p = zero.n, zero.m, zero.field.p
    fixed = {name: residues(t) for name, t in zero.tensors().items()
             if name not in ("nu", "om")}
    suite = identities.select(identities.NAB, variant)
    for start, digits in blocks:
        nu, om = _cochains(digits, n, m, p)
        keep = bruteforce.identity_mask(suite, p, {"nu": nu, "om": om}, fixed)
        if keep.any():
            yield start + np.flatnonzero(keep), nu[keep], om[keep]


def _decoded(zero: NonAbelianCocycle, nu, om) -> list:
    """The cocycles with the actions of `zero` and nu[k], om[k], one per k.
    The actions were checked when `zero` was built and the cochain shapes
    are checked here, once per block, so no cocycle re-runs the checks of
    its constructor (`_unchecked`)."""
    _check_shapes(zero, nu, om)
    return [_unchecked(zero, nu=_unchecked(zero.nu, grid=a), omega=_unchecked(zero.omega, grid=b))
            for a, b in zip(scalars(zero.field, nu), scalars(zero.field, om))]


def _check_shapes(zero: NonAbelianCocycle, nu, om):
    """Refuse stacked cochains not shaped over the base and fiber of `zero`."""
    n, m = zero.n, zero.m
    if nu.shape[1:] != (n, n, m) or om.shape[1:] != (n, n, n, m):
        raise UsageError("cochain shapes do not match base and fiber")


def _unchecked(value, **changes):
    """`dataclasses.replace(value, **changes)` without the checks of
    `__post_init__`, for changes already known to pass them."""
    new = object.__new__(type(value))
    new.__dict__.update(value.__dict__, **changes)
    return new


# cocycles coded or witness-checked at a time by `_coset_classes`
_CLASS_ROWS = 1 << 12


def _coset_classes(zero: NonAbelianCocycle, blocks):
    """The classes of the blocks (candidate indices, nu, om) of
    `_valid_cocycles` over a prime field, any fiber, with the actions of
    the zero cocycle `zero`, decided by class codes.

    c1 ~ c2 iff c2 - c1 = L x for some x, where L is the omega/nu
    equivalence matrix (`_equivalence_matrix`); it depends only on the base,
    fiber and actions.  With T L in reduced echelon form of rank r, that holds
    iff (T c1)[r:] = (T c2)[r:], so this key names the class, and one int64
    code names the key (`_class_code`).  The store keeps, sorted by code,
    one code and one candidate index per class: its representative's, the
    first of the class in candidate order.  Each block's codes are
    deduplicated by sorting (`np.unique`), looked up in the store
    (`np.searchsorted`), and its new classes merged in once.  Each member
    that joins a class gets its canonical witness phi from the elimination
    of the code, checked against its representative's row, rebuilt from the
    stored index (`candidate_rows`), at most `_CLASS_ROWS` members at a
    time.  Returns (the representatives' candidate indices, ascending, valid
    count).
    """
    p = zero.field.p
    actions = _cocycle_arrays(zero)
    algebras = {name: residues(t) for name, t in zero.tensors().items()}
    code, witness = _class_code(zero)
    codes, firsts = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    count = 0
    for index, nu, om in blocks:
        count += len(index)
        keys, first, inverse = np.unique(np.concatenate([
            code(nu[at:at + _CLASS_ROWS], om[at:at + _CLASS_ROWS])
            for at in range(0, len(index), _CLASS_ROWS)]), return_index=True, return_inverse=True)
        at = np.searchsorted(codes, keys)
        known = np.zeros(len(keys), dtype=bool)
        inside = at < len(codes)
        known[inside] = codes[at[inside]] == keys[inside]
        reps = index[first]
        reps[known] = firsts[at[known]]
        codes = np.insert(codes, at[~known], keys[~known])
        firsts = np.insert(firsts, at[~known], reps[~known])
        reps = reps[inverse]
        joins = np.flatnonzero(reps != index)
        for at in range(0, len(joins), _CLASS_ROWS):
            k = joins[at:at + _CLASS_ROWS]
            members = _CocycleArrays(nu[k], om[k], *(
                np.broadcast_to(a, (len(k),) + a.shape) for a in actions[2:]))
            rep_nu, rep_om = candidate_rows(zero, reps[k])
            targets = actions._replace(nu=rep_nu, om=rep_om)
            step = _candidate_digits(rep_nu - nu[k], rep_om - om[k]) % p
            phi = bruteforce.contract_mod("kw,qtw->ktq", p, step, witness)
            if not _equivalent_via(members, targets, phi, algebras, p).all():
                raise InternalConsistencyError("class witness failed verification")
    return np.sort(firsts), count


def _class_code(zero: NonAbelianCocycle):
    """(code, witness) of `_coset_classes`, from one elimination.

    code maps stacked cocycles (nu, om) over the base and fiber of `zero` to
    one int64 each, equal exactly where their keys (T c)[r:] for L =
    `_equivalence_matrix(zero)` are.  A cocycle's nu and om rows of `_flat`
    are D d for its candidate digits d (`_candidate_digits`), so its key is
    (T D)[r:] d, whose entries outnumber the digits and are dependent.  One
    elimination of [L | D] leaves, in its rows past L's pivots, that map in
    reduced echelon form: R, whose rows span the key map's, so R d = R d'
    exactly where the keys agree.  The code is R d mod p read in base p:
    injective on the keys, below p^rank(R) <= p^(digit count).

    witness[q, t, w] is W, the D part of L's pivot rows, through the maps of
    L's columns: the pivots depend on L's columns alone, so where c1 ~ c2,
    R (d2 - d1) = 0 and the canonical phi of c2 - c1 = L x (free unknowns at
    zero, as `Matrix.solve` returns x) is W (d2 - d1)."""
    p, n, m = zero.field.p, zero.n, zero.m
    matrix, maps = _equivalence_matrix(zero)
    cols, width = matrix.shape[1], CochainCoords(n, m, zero.field).total
    d = _flat(_cochains(np.eye(width, dtype=np.int64), n, m, p)).T
    aug, rank, pivot_row = bruteforce.eliminate(
        np.concatenate([matrix, d], axis=1)[None], cols + width, p)
    pivots = pivot_row[0, :cols] >= 0
    r = np.count_nonzero(pivots)
    reduced = aug[0, r:rank[0], cols:]
    witness = bruteforce.contract_mod("ktq,kw->qtw", p, maps[pivots], aug[0, :r, cols:])
    bruteforce.require_int64_headroom(1, 1, p ** len(reduced))
    weights = p ** np.arange(len(reduced) - 1, -1, -1, dtype=np.int64)
    return (lambda nu, om: bruteforce.contract_mod(
        "kw,ew->ke", p, _candidate_digits(nu, om), reduced) @ weights), witness
