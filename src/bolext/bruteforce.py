"""Batched mod-p enumeration engines (numpy int arithmetic, exact).

Everything here works on integer residue arrays; callers convert to and from
the exact scalar types.  Candidate streams are generated in lexicographic
order of their parameter digits and processed in fixed-size chunks, so results
are deterministic and ranges can be partitioned.
"""
from __future__ import annotations

from math import factorial, prod

import numpy as np

from .errors import UnsupportedEnumerationError

_CHUNK = 1 << 16


def _dtype(p: int):
    # storage for residues and their sums in the small identity suites
    return np.int16 if p <= 7 else np.int64


def _headroom_dtype(terms: int, degree: int, p: int):
    """The narrowest integer type that holds a sum of `terms` products of
    `degree` residues mod p; raises where even int64 does not."""
    worst = max(terms, 1) * (p - 1) ** degree
    for dt in (np.int16, np.int32, np.int64):
        if worst <= np.iinfo(dt).max:
            return dt
    raise UnsupportedEnumerationError(
        f"{terms} products of {degree} residues mod {p} overflow int64")


def digit_block(start: int, stop: int, p: int, width: int, dtype) -> np.ndarray:
    """Rows start..stop-1 written base p, most significant digit first;
    raises unless p^width - 1 (and p itself) fits int64."""
    require_int64_headroom(1, 1, p ** max(width, 1))
    idx = np.arange(start, stop, dtype=np.int64)
    weights = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] // weights[None, :]) % p).astype(dtype)


def skew_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def bil_from_params(params: np.ndarray, n: int, p: int) -> np.ndarray:
    """Skew bilinear tensors from free coordinates b[i][j][:], i<j."""
    b = params.shape[0]
    bil = np.zeros((b, n, n, n), dtype=params.dtype)
    k = 0
    for i, j in skew_pairs(n):
        block = params[:, k:k + n]
        bil[:, i, j, :] = block
        bil[:, j, i, :] = (-block) % p
        k += n
    return bil


def tri_from_params(params: np.ndarray, n: int, p: int) -> np.ndarray:
    """Tensors skew in the first two slots from t[i][j][k][:], i<j."""
    b = params.shape[0]
    tri = np.zeros((b, n, n, n, n), dtype=params.dtype)
    k = 0
    for i, j in skew_pairs(n):
        for c in range(n):
            block = params[:, k:k + n]
            tri[:, i, j, c, :] = block
            tri[:, j, i, c, :] = (-block) % p
            k += n
    return tri


def validate_bol_mask(bil: np.ndarray, tri: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of batch entries whose tensors satisfy all five axioms.

    Identities run cheapest first, each stage only on the survivors of the
    previous ones; the conjunction is unchanged.
    """
    b = bil.shape[0]
    ok = np.ones(b, dtype=bool)

    ok &= ~np.any((bil + bil.transpose(0, 2, 1, 3)) % p, axis=(1, 2, 3))
    ok &= ~np.any((tri + tri.transpose(0, 2, 1, 3, 4)) % p, axis=(1, 2, 3, 4))
    cyc = (tri + tri.transpose(0, 2, 3, 1, 4) + tri.transpose(0, 3, 1, 2, 4)) % p
    ok &= ~np.any(cyc, axis=(1, 2, 3, 4))

    idx = np.flatnonzero(ok)
    if idx.size:
        B, T = bil[idx], tri[idx]
        # [ei,ej,ek*el] = [ei,ej,ek]*el + ek*[ei,ej,el] + [ek,el,ei*ej] - (ek*el)*(ei*ej)
        res = np.einsum("bklq,bijqr->bijklr", B, T) % p
        res -= np.einsum("bijkq,bqlr->bijklr", T, B) % p
        res -= np.einsum("bijlq,bkqr->bijklr", T, B) % p
        res -= np.einsum("bijq,bklqr->bijklr", B, T) % p
        res += np.einsum("bklq,bijs,bqsr->bijklr", B, B, B, optimize=True) % p
        ok[idx] = ~np.any(res % p, axis=(1, 2, 3, 4, 5))

    idx = np.flatnonzero(ok)
    if idx.size:
        T = tri[idx]
        res = np.einsum("bklmq,bijqr->bijklmr", T, T) % p
        res -= np.einsum("bijkq,bqlmr->bijklmr", T, T) % p
        res -= np.einsum("bijlq,bkqmr->bijklmr", T, T) % p
        res -= np.einsum("bijmq,bklqr->bijklmr", T, T) % p
        ok[idx] = ~np.any(res % p, axis=(1, 2, 3, 4, 5, 6))
    return ok


def enumerate_valid_tensors(n: int, p: int, tri_zero: bool, budget: int, chunk=_CHUNK):
    """Yield (bil, tri) integer tensor pairs passing the axiom suite."""
    dt = _dtype(p)
    npairs = len(skew_pairs(n))
    width = npairs * n if tri_zero else npairs * n + npairs * n * n
    total = p ** width
    if total > budget:
        raise UnsupportedEnumerationError(
            f"{total} candidate tensors exceed the bound {budget}")
    bw = npairs * n
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        params = digit_block(start, stop, p, width, dt)
        bil = bil_from_params(params[:, :bw], n, p)
        if tri_zero:
            tri = np.zeros((stop - start, n, n, n, n), dtype=dt)
        else:
            tri = tri_from_params(params[:, bw:], n, p)
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


def automorphism_arrays(bil: np.ndarray, tri: np.ndarray, p: int, budget: int,
                        chunk=_CHUNK) -> np.ndarray:
    """All automorphism matrices as one (k, n, n) int array, candidate order."""
    n = bil.shape[0]
    if n > 3:
        raise UnsupportedEnumerationError("matrix enumeration supports dimension <= 3")
    total = p ** (n * n)
    if total > budget:
        raise UnsupportedEnumerationError(
            f"{total} candidate matrices exceed the bound {budget}")
    dt = _dtype(p)
    found = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        M = digit_block(start, stop, p, n * n, dt).reshape(stop - start, n, n)
        ok = det_mask(M, p)
        if ok.any():
            sub = M[np.flatnonzero(ok)]
            good = _morphism_fixed(bil.astype(dt), tri.astype(dt), sub, p)
            if good.any():
                found.append(sub[good])
    if not found:
        return np.zeros((0, n, n), dtype=dt)
    return np.concatenate(found, axis=0)


def _morphism_fixed(bil: np.ndarray, tri: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """Mask of matrices (columns = basis images) commuting with both products
    of one fixed structure.

    Each contraction runs in the narrowest integer type its worst-case sum
    fits (`_headroom_dtype`); residues are nonnegative, so no partial sum of
    any contraction order exceeds it."""
    n = M.shape[1]

    def contract(spec, terms, *ops):
        dt = _headroom_dtype(terms, len(ops), p)
        return np.einsum(spec, *(op.astype(dt, copy=False) for op in ops),
                         optimize=len(ops) > 2) % p

    lhs2 = contract("bai,bcj,acl->bijl", n ** 2, M, M, bil)
    rhs2 = contract("blq,ijq->bijl", n, M, bil)
    ok = ~np.any((lhs2 - rhs2) % p, axis=(1, 2, 3))
    if ok.any():
        idx = np.flatnonzero(ok)
        sub = M[idx]
        lhs3 = contract("bai,bcj,bdk,acdl->bijkl", n ** 3, sub, sub, sub, tri)
        rhs3 = contract("blq,ijkq->bijkl", n, sub, tri)
        ok[idx] = ~np.any((lhs3 - rhs3) % p, axis=(1, 2, 3, 4))
    return ok


# ---------------------------------------------------------------------------
# representation censuses

def rep_param_batches(n: int, m: int, p: int, budget: int):
    """All candidate (mu, theta, D) action tensors with D skew.

    Returns (mu, theta, dd) arrays of shapes (N,n,m,m), (N,n,n,m,m),
    (N,n,n,m,m) in lexicographic parameter order.
    """
    mm = m * m
    n_dd = len(skew_pairs(n))
    width = n * mm + n * n * mm + n_dd * mm
    total = p ** width
    if total > budget:
        raise UnsupportedEnumerationError(
            f"{total} candidate representations exceed the bound {budget}")
    dt = _dtype(p)
    params = digit_block(0, total, p, width, dt)
    k = 0
    mu = params[:, k:k + n * mm].reshape(total, n, m, m)
    k += n * mm
    theta = params[:, k:k + n * n * mm].reshape(total, n, n, m, m)
    k += n * n * mm
    dd = np.zeros((total, n, n, m, m), dtype=dt)
    for i, j in skew_pairs(n):
        block = params[:, k:k + mm].reshape(total, m, m)
        dd[:, i, j] = block
        dd[:, j, i] = (-block) % p
        k += mm
    return mu, theta, dd


def validate_rep_mask(bil, tri, mu, theta, dd, p) -> np.ndarray:
    """Mask of (mu, theta, D) batches satisfying the six module identities."""
    N, n, m, _ = mu.shape
    mul = lambda A, B: np.einsum("b...ij,b...jk->b...ik", A, B) % p

    def comm(A, B):
        return (mul(A, B) - mul(B, A)) % p

    ok = np.ones(N, dtype=bool)
    # D + theta - theta^T = 0
    ok &= ~np.any((dd + theta - theta.transpose(0, 2, 1, 3, 4)) % p, axis=(1, 2, 3, 4))

    # [D(i,j), mu(k)] = mu([i,j,k]) - theta(k, i*j) + mu(i*j) mu(k)
    Dij_mu = np.einsum("bijst,bktu->bijksu", dd, mu) % p
    mu_Dij = np.einsum("bkst,bijtu->bijksu", mu, dd) % p
    mu_br = np.einsum("ijkq,bqst->bijkst", tri, mu) % p
    th_star = np.einsum("ijq,bkqst->bijkst", bil, theta) % p
    mu_star = np.einsum("ijq,bqst,bktu->bijksu", bil, mu, mu, optimize=True) % p
    ok &= ~np.any((Dij_mu - mu_Dij - mu_br + th_star - mu_star) % p, axis=(1, 2, 3, 4, 5))

    # theta(i, k*l) = mu(k) theta(i,l) - mu(l) theta(i,k) - (D(k,l) - mu(k*l)) mu(i)
    lhs = np.einsum("klq,biqst->biklst", bil, theta) % p
    t1 = np.einsum("bkst,biltu->biklsu", mu, theta) % p
    t2 = np.einsum("blst,biktu->biklsu", mu, theta) % p
    t3 = np.einsum("bklst,bitu->biklsu", dd, mu) % p
    t4 = np.einsum("klq,bqst,bitu->biklsu", bil, mu, mu, optimize=True) % p
    ok &= ~np.any((lhs - t1 + t2 + t3 - t4) % p, axis=(1, 2, 3, 4, 5))

    # [D(i,j), D(k,l)] = D([i,j,k], l) + D(k, [i,j,l])
    c = (np.einsum("bijst,bkltu->bijklsu", dd, dd) -
         np.einsum("bklst,bijtu->bijklsu", dd, dd)) % p
    r = (np.einsum("ijkq,bqlst->bijklst", tri, dd) +
         np.einsum("ijlq,bkqst->bijklst", tri, dd)) % p
    ok &= ~np.any((c - r) % p, axis=(1, 2, 3, 4, 5, 6))

    # [D(i,j), theta(k,l)] = theta([i,j,k], l) + theta(k, [i,j,l])
    c = (np.einsum("bijst,bkltu->bijklsu", dd, theta) -
         np.einsum("bklst,bijtu->bijklsu", theta, dd)) % p
    r = (np.einsum("ijkq,bqlst->bijklst", tri, theta) +
         np.einsum("ijlq,bkqst->bijklst", tri, theta)) % p
    ok &= ~np.any((c - r) % p, axis=(1, 2, 3, 4, 5, 6))

    # theta(i, [k,l,w]) = theta(l,w) theta(i,k) - theta(k,w) theta(i,l) + D(k,l) theta(i,w)
    lhs = np.einsum("klwq,biqst->biklwst", tri, theta) % p
    t1 = np.einsum("blwst,biktu->biklwsu", theta, theta) % p
    t2 = np.einsum("bkwst,biltu->biklwsu", theta, theta) % p
    t3 = np.einsum("bklst,biwtu->biklwsu", dd, theta) % p
    ok &= ~np.any((lhs - t1 + t2 - t3) % p, axis=(1, 2, 3, 4, 5, 6))
    return ok


def semidirect_arrays(bil, tri, mu, theta, dd, p):
    """Batched structure tensors of the semidirect sum for each action tuple.

    Action arrays store matrix entries as [..., row, col]; the structure
    tensor stores the coefficient vector last, so each block transposes the
    matrix axes (image of fiber basis vector v = column v of the acting map).
    """
    N, n, m, _ = mu.shape
    d = n + m
    dt = mu.dtype
    bilE = np.zeros((N, d, d, d), dtype=dt)
    triE = np.zeros((N, d, d, d, d), dtype=dt)
    bilE[:, :n, :n, :n] = bil[None] % p
    # (x+u)*(y+v) = x*y + mu(x)v - mu(y)u
    bilE[:, :n, n:, n:] = mu.transpose(0, 1, 3, 2)
    bilE[:, n:, :n, n:] = (-mu).transpose(0, 3, 1, 2) % p
    triE[:, :n, :n, :n, :n] = tri[None] % p
    # [x+u,y+v,z+w] = [x,y,z] + theta(y,z)u - theta(x,z)v + D(x,y)w
    triE[:, n:, :n, :n, n:] = theta.transpose(0, 4, 1, 2, 3)
    triE[:, :n, n:, :n, n:] = (-theta).transpose(0, 4, 1, 2, 3).transpose(0, 2, 1, 3, 4) % p
    triE[:, :n, :n, n:, n:] = dd.transpose(0, 1, 2, 4, 3)
    return bilE, triE


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
