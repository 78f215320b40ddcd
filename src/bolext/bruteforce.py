"""Batched mod-p enumeration engines (numpy int arithmetic, exact).

Everything here works on integer residue arrays; callers convert to and from
the exact scalar types.  Every enumeration (the Bol tensors, the flat
automorphism scan, the factored scan of block-triangular automorphisms, the
census's action tuples, the maps phi over a non-abelian fiber, the cocycles
of a classification) takes its candidates from one stream,
`candidate_blocks`: the p^width digit strings of its parameters in
lexicographic order (once per outer index), checked against the bound once
and read in fixed-size chunks, by `identity_mask` where a table decides
them.  Only the flat scan is limited to dimension <= 3.
"""
from __future__ import annotations

from functools import partial
from math import factorial, prod

import numpy as np

from . import identities
from .errors import InternalConsistencyError, UnsupportedEnumerationError

_CHUNK = 1 << 16
# residual entries per slice of an identity's survivors in `identity_mask`
_ENTRIES = 1 << 19


def _headroom_dtype(terms: int, degree: int, p: int):
    """The narrowest integer type that holds a sum of `terms` products of
    `degree` residues mod p; raises where even int64 does not."""
    return _narrowest(max(terms, 1) * (p - 1) ** degree,
                      f"{terms} products of {degree} residues mod {p}")


def _narrowest(worst: int, what: str):
    for dt in (np.int16, np.int32, np.int64):
        if worst <= np.iinfo(dt).max:
            return dt
    raise UnsupportedEnumerationError(f"{what} overflow int64")


def digit_block(start: int, stop: int, p: int, width: int, dtype) -> np.ndarray:
    """The last `width` base-p digits of rows start..stop-1, most
    significant first; raises unless stop - 1 and p^width - 1 (and p
    itself) fit int64."""
    require_int64_headroom(1, 1, max(stop, p ** max(width, 1)))
    idx = np.arange(start, stop, dtype=np.int64)
    weights = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] // weights[None, :]) % p).astype(dtype)


def candidate_blocks(p: int, width: int, budget: int, what: str, chunk=_CHUNK,
                     outer: int = 1):
    """The outer * p^width candidates as (start, digit rows) per chunk of
    `chunk` rows, in lexicographic order: candidate k is the digit string of
    k mod p^width, for the outer index k // p^width (by default every digit
    string once).  The count is checked against `budget` here, before the
    first block is asked for."""
    total = outer * p ** width
    if total > budget:
        raise UnsupportedEnumerationError(
            f"{total} candidate {what} exceed the bound {budget}")
    dt = _headroom_dtype(1, 1, p)
    return ((start, digit_block(start, min(start + chunk, total), p, width, dt))
            for start in range(0, total, chunk))


def skew_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def skew_from_params(params: np.ndarray, n: int, shape: tuple, p: int) -> np.ndarray:
    """Tensors skew in their first two axes, from one free block of the
    given shape per pair (i, j), i < j, in `skew_pairs` order."""
    b, size = params.shape[0], prod(shape)
    out = np.zeros((b, n, n) + shape, dtype=params.dtype)
    for k, (i, j) in enumerate(skew_pairs(n)):
        block = params[:, k * size:(k + 1) * size].reshape((b,) + shape)
        out[:, i, j] = block
        out[:, j, i] = (-block) % p
    return out


def identity_mask(suite, p: int, batch: dict, fixed=None, ok=None) -> np.ndarray:
    """Mask of the batch entries that satisfy every identity of a suite
    without variant marks: an `identities` table (`BOL`, `REP`, `EQV`, ...),
    the suite of one variant (`identities.select`), or a part of one
    (`reading`).

    `batch` maps tensor names to residue arrays with a leading batch axis,
    `fixed` to residue arrays shared by the whole batch.  Entries false in
    the starting mask `ok` (default all true) stay false and are never
    evaluated.  Identities run cheapest first, each only on the survivors
    of the ones before it, in slices of at most `_ENTRIES` residual entries,
    so the memory an identity takes does not grow with the batch.  A term is
    bounded by `_term_bound` and contracted by `_contract`; an identity's
    terms are summed unreduced, in a type that holds p and the sum of their
    bounds, and reduced once.  The triangle of a group is not needed here:
    its residuals are symmetric.
    """
    fixed = fixed or {}
    shapes = {name: a.shape[1:] for name, a in batch.items()}
    shapes.update((name, a.shape) for name, a in fixed.items())
    checks = [(identities.axis_sizes(idt, shapes), idt)
              for group in suite for idt in group.identities]
    read = set().union(*(_reads(idt) for _, idt in checks))
    peak = {name: int(a.max(initial=0)) for name, a in {**batch, **fixed}.items()
            if name in read}
    rows = len(next(iter(batch.values())))
    ok = np.ones(rows, dtype=bool) if ok is None else ok.copy()
    for sizes, idt in sorted(checks, key=lambda c: _identity_cost(*c)):
        survivors = np.flatnonzero(ok)
        if not survivors.size:
            break
        names = _reads(idt)
        bounds = [_term_bound(t, idt.axes, sizes, peak) for t in idt.terms]
        what = f"the terms of {idt.tag} mod {p}"
        dtype = _narrowest(max(sum(bounds), p), what)
        shape = tuple(sizes[ch] for ch in idt.axes)
        step = max(1, _ENTRIES // max(prod(shape), 1))
        for idx in np.split(survivors, range(step, survivors.size, step)):
            every = idx.size == rows
            arrays = {name: fixed[name] if name in fixed else
                      batch[name] if every else batch[name][idx] for name in names}
            total = np.zeros((idx.size,) + shape, dtype=dtype)
            for t, worst in zip(idt.terms, bounds):
                value = identities.contract(t, idt.axes, arrays, sizes, batch.keys(), "Z",
                                            einsum=partial(_contract, worst, what))
                (np.add if t.sign > 0 else np.subtract)(total, value, out=total)
            np.remainder(total, p, out=total)
            ok[idx] = ~np.any(total, axis=tuple(range(1, total.ndim)))
    return ok


def reading(suite, names) -> tuple:
    """(the identities of `suite` whose terms read only the tensors `names`,
    the others), each as a suite for `identity_mask`: the checks of a batch
    that are shared by every structure agreeing on those tensors, and the
    checks left to each structure."""
    checks = [identities.Group(len(idt.where), (idt,))
              for group in suite for idt in group.identities]
    part = tuple(g for g in checks if _reads(g.identities[0]) <= set(names))
    return part, tuple(g for g in checks if g not in part)


def _reads(idt) -> set:
    return {name for t in idt.terms for name, _ in t.factors}


def _term_bound(term, axes: str, sizes: dict, peak: dict) -> int:
    """The largest value one term's unreduced contraction can take: its
    summed products times its factors' largest entries (so an all-zero
    factor bounds it by 0)."""
    summed = set().union(*(idx for _, idx in term.factors)) - set(axes)
    return prod(sizes[ch] for ch in summed) * prod(peak[name] for name, _ in term.factors)


def _contract(worst: int, what: str, spec: str, *ops) -> np.ndarray:
    """Unreduced `np.einsum(spec, *ops)` of residue arrays in the narrowest
    integer type that holds `worst`, its bound, contracted pairwise in the
    order einsum's optimizer picks (batched matrix products where it can).

    Exact in every order: residues are nonnegative, so every partial sum is
    bounded by the contraction of the factors it has met, which is at most
    `worst` unless a factor not yet met is all zero.  Then the result is 0,
    and an intermediate that wrapped around does not change it: integer
    arithmetic wraps modulo 2^bits, and the result fits."""
    dt = _narrowest(worst, what)
    return np.einsum(spec, *(op.astype(dt, copy=False) for op in ops), optimize=True)


def _identity_cost(sizes, idt) -> int:
    return sum(prod(sizes[ch] for ch in set(idt.axes).union(*(idx for _, idx in t.factors)))
               for t in idt.terms)


def validate_bol_mask(bil: np.ndarray, tri: np.ndarray, p: int, ok=None) -> np.ndarray:
    """Boolean mask of batch entries whose tensors satisfy all five axioms;
    entries false in the starting mask `ok` stay false unevaluated."""
    return identity_mask(identities.BOL, p, {"bil": bil, "tri": tri}, ok=ok)


def enumerate_valid_tensors(n: int, p: int, tri_zero: bool, budget: int):
    """Yield (bil, tri) integer tensor pairs passing the axiom suite."""
    npairs = len(skew_pairs(n))
    bw = npairs * n
    width = bw if tri_zero else bw + npairs * n * n
    for _, params in candidate_blocks(p, width, budget, "tensors"):
        bil = skew_from_params(params[:, :bw], n, (n,), p)
        if tri_zero:
            tri = np.zeros((len(params), n, n, n, n), dtype=params.dtype)
        else:
            tri = skew_from_params(params[:, bw:], n, (n, n), p)
        mask = validate_bol_mask(bil, tri, p)
        for i in np.flatnonzero(mask):
            yield bil[i], tri[i]


def det_mask(M: np.ndarray, p: int) -> np.ndarray:
    """Nonzero-determinant mask; supports n <= 3."""
    n = M.shape[1]
    M = M.astype(_headroom_dtype(factorial(n), n, p), copy=False)
    if n == 1:
        d = M[:, 0, 0]
    elif n == 2:
        d = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    elif n == 3:
        d = (M[:, 0, 0] * (M[:, 1, 1] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 1])
             - M[:, 0, 1] * (M[:, 1, 0] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 0])
             + M[:, 0, 2] * (M[:, 1, 0] * M[:, 2, 1] - M[:, 1, 1] * M[:, 2, 0]))
    else:
        raise UnsupportedEnumerationError("matrix enumeration supports dimension <= 3")
    return (d % p) != 0


def automorphism_arrays(bil: np.ndarray, tri: np.ndarray, p: int, budget: int) -> np.ndarray:
    """All automorphism matrices as one (k, n, n) int array, in candidate
    order: the p^(n^2) matrices, those with nonzero determinant tested
    against both products.  Supports n <= 3."""
    n = bil.shape[0]
    if n > 3:
        raise UnsupportedEnumerationError("matrix enumeration supports dimension <= 3")
    dt = _headroom_dtype(1, 1, p)
    bil, tri = bil.astype(dt), tri.astype(dt)
    found = []
    for _, digits in candidate_blocks(p, n * n, budget, "matrices"):
        g = digits.reshape(len(digits), n, n)
        g = g[det_mask(g, p)]
        found.append(g[_morphism_fixed(bil, tri, g, p)])
    return np.concatenate(found)


def triangular_arrays(bil: np.ndarray, tri: np.ndarray, alphas: np.ndarray,
                      betas: np.ndarray, p: int, budget: int) -> tuple:
    """(automorphisms G = [[alpha, 0], [C, beta]] of one structure, the pair
    index ia * l + ib of their blocks alphas[ia], betas[ib]) in candidate
    order: alpha-major, then beta, then the digits of C, one stream of the
    k l p^(nm) candidates for alphas (k, n, n) and betas (l, m, m).  G is
    invertible when alpha and beta are, so it is only tested against both
    products."""
    n, m = alphas.shape[1], betas.shape[1]
    dt = _headroom_dtype(1, 1, p)
    bil, tri = bil.astype(dt), tri.astype(dt)
    width, nb = n * m, len(betas)
    found, pairs = [], []
    for start, digits in candidate_blocks(p, width, budget, "matrices",
                                          outer=len(alphas) * nb):
        pair = np.arange(start, start + len(digits)) // p ** width
        g = np.zeros((len(digits), n + m, n + m), dtype=dt)
        g[:, :n, :n] = alphas[pair // nb]
        g[:, n:, :n] = digits.reshape(len(digits), m, n)
        g[:, n:, n:] = betas[pair % nb]
        good = _morphism_fixed(bil, tri, g, p)
        found.append(g[good])
        pairs.append(pair[good])
    return np.concatenate(found), np.concatenate(pairs)


def _morphism_fixed(bil: np.ndarray, tri: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """Mask of matrices (columns = basis images) commuting with both products
    of one fixed structure, each contraction bounded by its worst case.  An
    all-zero bracket is skipped: both sides of its check are then zero."""
    n = M.shape[1]

    def contract(spec, terms, *ops):
        degree = len(ops)
        return _contract(terms * (p - 1) ** degree,
                         f"{terms} products of {degree} residues mod {p}", spec, *ops) % p

    lhs2 = contract("bai,bcj,acl->bijl", n ** 2, M, M, bil)
    rhs2 = contract("blq,ijq->bijl", n, M, bil)
    ok = ~np.any((lhs2 - rhs2) % p, axis=(1, 2, 3))
    if ok.any() and tri.any():
        idx = np.flatnonzero(ok)
        sub = M[idx]
        lhs3 = contract("bai,bcj,bdk,acdl->bijkl", n ** 3, sub, sub, sub, tri)
        rhs3 = contract("blq,ijkq->bijkl", n, sub, tri)
        ok[idx] = ~np.any((lhs3 - rhs3) % p, axis=(1, 2, 3, 4))
    return ok


# ---------------------------------------------------------------------------
# representation censuses

def _rep_param_width(n, m):
    return (n + n * n + len(skew_pairs(n))) * m * m


def rep_param_batches(n: int, m: int, p: int, params: np.ndarray):
    """The (mu, theta, dd) action tensors, D skew, of candidate digit rows
    `params` (`candidate_blocks` of width `_rep_param_width(n, m)`).

    Returns (mu, theta, dd) arrays of shapes (N,n,m,m), (N,n,n,m,m),
    (N,n,n,m,m).
    """
    rows, mm = len(params), m * m
    mu = params[:, :n * mm].reshape(rows, n, m, m)
    theta = params[:, n * mm:(n + n * n) * mm].reshape(rows, n, n, m, m)
    dd = skew_from_params(params[:, (n + n * n) * mm:], n, (m, m), p)
    return mu, theta, dd


def validate_rep_mask(bil, tri, mu, theta, dd, p, ok=None) -> np.ndarray:
    """Mask of (mu, theta, D) batches satisfying the six module identities;
    entries false in the starting mask `ok` stay false unevaluated."""
    return identity_mask(identities.REP, p, {"mu": mu, "theta": theta, "dd": dd},
                         {"bil": bil, "tri": tri}, ok)


def semidirect_arrays(bil, tri, mu, theta, dd, p):
    """Batched structure tensors of the semidirect sum for each action tuple:
    the glue of the zero cocycle over an abelian fiber, with the action
    arrays (leading batch axis) laid out as the `identities` tensors."""
    from .nonabelian import glue
    return glue(bil, tri, None, None, None, None, mu, theta, dd, p=p)


# ---------------------------------------------------------------------------
# exact linear algebra on residue arrays (delayed reduction: each contraction
# sums its products in int64 and reduces once, after a headroom check)

def require_int64_headroom(terms: int, degree: int, p: int):
    """Raise unless a sum of `terms` products of `degree` residues fits int64."""
    _headroom_dtype(terms, degree, p)


def contract_mod(spec: str, p: int, *operands) -> np.ndarray:
    """`np.einsum(spec, *operands) % p` on residue arrays (no ellipsis)."""
    inputs, output = spec.split("->")
    sizes = {}
    for term, op in zip(inputs.split(","), operands):
        sizes.update(zip(term, op.shape))
    summed = set(sizes) - set(output)
    require_int64_headroom(prod(sizes[ch] for ch in summed), len(operands), p)
    return np.einsum(spec, *(np.asarray(op, dtype=np.int64) for op in operands)) % p


def rref_transform(a: np.ndarray, p: int):
    """Row-reduce a residue matrix mod p.

    Returns (T, rank, pivots) with T invertible and T a the reduced row
    echelon form; pivots are chosen as in `Matrix.rref`.
    """
    require_int64_headroom(1, 2, p)
    rows, cols = a.shape
    aug = np.concatenate([np.asarray(a, dtype=np.int64) % p,
                          np.eye(rows, dtype=np.int64)], axis=1)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(aug[r:, c])
        if nz.size == 0:
            continue
        aug[[r, r + nz[0]]] = aug[[r + nz[0], r]]
        aug[r] = aug[r] * pow(int(aug[r, c]), p - 2, p) % p
        f = aug[:, c].copy()
        f[r] = 0
        aug = (aug - f[:, None] * aug[r][None, :]) % p
        pivots.append(c)
        r += 1
    return aug[:, cols:], r, tuple(pivots)


def inverse_mod(a: np.ndarray, p: int):
    """(invertible mask, inverses) of a stack a[k] of square residue
    matrices mod p, by one Gauss-Jordan elimination run on the whole stack,
    pivots chosen as in `Matrix.rref`.  The inverse of a singular matrix is
    zero.  Every inverse is confirmed: a[k] a^-1[k] = I."""
    require_int64_headroom(1, 2, p)
    a = np.asarray(a, dtype=np.int64) % p
    k, n = a.shape[0], a.shape[-1]
    eye = np.eye(n, dtype=np.int64)
    aug = np.concatenate([a, np.broadcast_to(eye, (k, n, n))], axis=2)
    ok = np.ones(k, dtype=bool)
    every = np.arange(k)
    for c in range(n):
        nonzero = aug[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        r = c + nonzero.argmax(axis=1)
        pivot = aug[every, r]
        aug[every, r] = aug[:, c]
        aug[:, c] = pivot * _power_mod(pivot[:, c], p - 2, p)[:, None] % p
        f = aug[:, :, c].copy()
        f[:, c] = 0
        aug = (aug - f[:, :, None] * aug[:, None, c]) % p
    inv = aug[:, :, n:] * ok[:, None, None]
    if not (contract_mod("kij,kjl->kil", p, a[ok], inv[ok]) == eye).all():
        raise InternalConsistencyError("batched inverse failed verification")
    return ok, inv


def _power_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x^e mod p elementwise, by repeated squaring (x a residue array)."""
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def canonical_solutions(t: np.ndarray, rank: int, pivots: tuple, cols: int,
                        b: np.ndarray, p: int):
    """Solve a x = b for each row of b, given `rref_transform(a, p)`.

    Returns (consistent mask, x): x has the free variables at zero, as
    `Matrix.solve` returns it, and is meaningful only where consistent.
    """
    tb = contract_mod("ij,kj->ki", p, t, b)
    consistent = ~np.any(tb[:, rank:], axis=1)
    x = np.zeros((b.shape[0], cols), dtype=np.int64)
    x[:, list(pivots)] = tb[:, :rank]
    return consistent, x
