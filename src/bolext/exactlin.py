"""Exact scalars over Q and GF(p), dense matrices, canonical subspaces.

Rational scalars are `fractions.Fraction` (always in lowest terms with a
positive denominator); prime-field scalars are `ModP` residues in [0, p).
Vectors are plain tuples of scalars.  `Matrix` is immutable and row-major.
Every `Subspace` carries its reduced row echelon basis, so subspace equality
is row-wise equality and containment is a cheap reduction.  Products,
mat-vecs and eliminations skip every product with a zero factor; exact
scalars are canonical, so the results are identical to the dense loops.

All operations are pure; every value is safe to share between threads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import ContainmentError, UnsupportedEnumerationError, UsageError

__all__ = [
    "ModP", "Rationals", "PrimeField", "RATIONALS",
    "Matrix", "Subspace",
    "rref", "kernel_basis", "solve_linear", "quotient_dim", "enumerate_vectors",
    "vec_add", "vec_sub", "vec_neg", "vec_scale", "vec_is_zero", "vec_support",
    "vec_combine", "zero_vec", "basis_vec", "negatives",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all of _MR_BASES (Jiang and Deng, 2014)
MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < MR_EXACT_BELOW, about 3.2e23;
    that modulus itself is composite yet passes)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModP:
    """Residue in GF(p) with operator arithmetic; immutable and hashable."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("ModP is immutable")

    def _coerce(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise UsageError(f"mixed moduli {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else ModP(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else ModP(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else ModP(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else ModP(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return ModP(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return ModP(v * pow(self.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return ModP(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"{self.value}%{self.p}"


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)
# a decimal with an exponent: Fraction would build 10**exponent first
_EXPONENT_FORM = re.compile(r"\s*[-+]?(?=\.?\d)[\d_]*\.?[\d_]*[eE]")


class Rationals:
    """The field Q; scalars are `fractions.Fraction`."""

    kind = "rationals"
    is_prime_field = False

    @property
    def zero(self):  # Fraction is immutable: every call returns this one
        return _Q_ZERO

    @property
    def one(self):
        return _Q_ONE

    def scalar(self, v) -> Fraction:
        return Fraction(v)

    def format_scalar(self, s) -> str:
        return str(s)

    def parse_scalar(self, token):
        if isinstance(token, bool):
            raise ValueError("booleans are not scalars")
        if isinstance(token, int):
            return Fraction(token)
        if isinstance(token, str):
            if token.isdecimal():  # what Fraction's pattern reads as one integer
                return Fraction(int(token))
            if _EXPONENT_FORM.match(token):
                raise ValueError(f"exponent forms are not rational scalars, got {token!r}")
            return Fraction(token)
        raise ValueError(f"cannot parse rational scalar from {token!r}")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Q"


class PrimeField:
    """GF(p) for a prime p not in {2, 3}."""

    kind = "prime-field"
    is_prime_field = True

    def __init__(self, p: int):
        if p >= MR_EXACT_BELOW:
            raise UsageError(f"modulus {p} is too large: primality is only "
                             f"proven below {MR_EXACT_BELOW}")
        if not is_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        if p in (2, 3):
            raise UsageError("characteristic 2 and 3 are excluded")
        self.p = p
        self._zero, self._one = ModP(0, p), ModP(1, p)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def scalar(self, v) -> ModP:
        return ModP(int(v), self.p)

    def format_scalar(self, s):
        return int(s.value)

    def parse_scalar(self, token):
        if isinstance(token, bool) or not isinstance(token, int):
            raise ValueError(f"GF({self.p}) scalars are integers, got {token!r}")
        if not 0 <= token < self.p:
            raise ValueError(f"residue {token} outside [0, {self.p})")
        return ModP(token, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


RATIONALS = Rationals()


# ---------------------------------------------------------------------------
# vectors as tuples

def zero_vec(field, n):
    z = field.zero
    return (z,) * n


def basis_vec(field, n, i):
    z, o = field.zero, field.one
    return tuple(o if k == i else z for k in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_is_zero(u) -> bool:
    return all(not a for a in u)


def negatives(u, v) -> bool:
    """u = -v for two nested tuples of one shape over one field, adding
    only where one is nonzero."""
    if u and isinstance(u[0], tuple):
        return all(map(negatives, u, v))
    return all(not a + b for a, b in zip(u, v) if a or b)


def vec_support(u) -> tuple:
    """(index, entry) for the nonzero entries of u."""
    return tuple((j, b) for j, b in enumerate(u) if b)


def vec_combine(zero, width, terms) -> tuple:
    """sum(a * v) over (a, vec_support(v)) terms as a vector of `width`
    entries, skipping the terms whose coefficient a is zero."""
    out = [zero] * width
    for a, support in terms:
        if a:
            for j, b in support:
                out[j] = out[j] + a * b
    return tuple(out)


def _check_moduli(field, rows):
    """Raise the mixed-moduli UsageError that a dense product of these rows
    of scalars would: the sparse kernels never multiply a zero residue,
    whatever its modulus."""
    if field.is_prime_field:
        p = field.p
        for row in rows:
            for a in row:
                if isinstance(a, ModP) and a.p != p:
                    raise UsageError(f"mixed moduli {p} and {a.p}")


def _dot(row, support, zero):
    """sum(row[j] * b for (j, b) in support), skipping zero entries of row."""
    total = zero
    for j, b in support:
        a = row[j]
        if a:
            total = total + a * b
    return total


class Matrix:
    """Immutable dense matrix over one field, row-major tuples; its entries
    are scalars of that field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries: Sequence[Sequence], cols: Optional[int] = None):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        if rows:
            cols = len(entries[0])
        elif cols is None:
            cols = 0
        for row in entries:
            if len(row) != cols:
                raise UsageError("ragged matrix rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, tuple((z,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def from_cols(cls, field, cols_list, rows=None):
        if not cols_list:
            return cls.zeros(field, rows or 0, 0)
        r = len(cols_list[0])
        return cls(field, tuple(tuple(col[i] for col in cols_list) for i in range(r)))

    @classmethod
    def from_int_rows(cls, field, int_rows):
        return cls(field, tuple(tuple(field.scalar(v) for v in row) for row in int_rows))

    # -- basic ops ----------------------------------------------------------
    def _check_same_shape(self, other):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise UsageError("matrix shape/field mismatch")

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field, tuple(tuple(a + b for a, b in zip(r1, r2))
                                        for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field, tuple(tuple(a - b for a, b in zip(r1, r2))
                                        for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self):
        return Matrix(self.field, tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, c):
        return Matrix(self.field, tuple(tuple(c * a for a in r) for r in self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.field != other.field or self.cols != other.rows:
                raise UsageError("matrix product shape/field mismatch")
            _check_moduli(self.field, self.entries + other.entries)
            z = self.field.zero
            supports = tuple(vec_support(row) for row in other.entries)
            return Matrix(self.field, tuple(vec_combine(z, other.cols, zip(row, supports))
                                            for row in self.entries), cols=other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise UsageError("matrix/vector size mismatch")
        _check_moduli(self.field, (vec, *self.entries))
        support = vec_support(vec)
        z = self.field.zero
        if not support:
            return (z,) * self.rows
        return tuple(_dot(row, support, z) for row in self.entries)

    def transpose(self):
        return Matrix(self.field, tuple(zip(*self.entries))) if self.rows else \
            Matrix.zeros(self.field, self.cols, 0)

    def row(self, i) -> tuple:
        return self.entries[i]

    def col(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    def hstack(self, other):
        if self.rows != other.rows or self.field != other.field:
            raise UsageError("hstack mismatch")
        return Matrix(self.field, tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(not a for r in self.entries for a in r)

    # -- elimination ---------------------------------------------------------
    def rref(self):
        """Reduced row echelon form: (matrix, rank, pivot column tuple)."""
        _check_moduli(self.field, self.entries)
        m = [list(row) for row in self.entries]
        rows, cols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(cols):
            pivot = next((i for i in range(r, rows) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = m[r][c]
            m[r] = [a / inv if a else a for a in m[r]]
            support = vec_support(m[r])
            for i in range(rows):
                if i != r and m[i][c]:
                    f, row = m[i][c], m[i]
                    for j, b in support:
                        row[j] = row[j] - f * b
            pivots.append(c)
            r += 1
            if r == rows:
                break
        return Matrix(self.field, m, cols=cols), r, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel(self) -> "Subspace":
        red, rank, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        vecs = []
        z, o = self.field.zero, self.field.one
        for f in free:
            v = [z] * self.cols
            v[f] = o
            for i, pc in enumerate(pivots):
                v[pc] = -red.entries[i][f]
            vecs.append(tuple(v))
        return Subspace.from_vectors(self.field, self.cols, vecs)

    def solve(self, b) -> Optional[tuple]:
        """One exact solution of self·x = b with free variables at zero."""
        if len(b) != self.rows:
            raise UsageError("solve: right-hand side has wrong length")
        aug = Matrix(self.field, tuple(row + (bb,) for row, bb in zip(self.entries, b))) \
            if self.cols else Matrix(self.field, tuple((bb,) for bb in b))
        red, rank, pivots = aug.rref()
        if any(pc == self.cols for pc in pivots):
            return None
        z = self.field.zero
        x = [z] * self.cols
        for i, pc in enumerate(pivots):
            x[pc] = red.entries[i][self.cols]
        return tuple(x)

    def inverse(self) -> Optional["Matrix"]:
        if self.rows != self.cols:
            raise UsageError("inverse of a non-square matrix")
        n = self.rows
        aug = self.hstack(Matrix.identity(self.field, n))
        red, rank, pivots = aug.rref()
        if rank < n or any(pc >= n for pc in pivots[:n]):
            return None
        return Matrix(self.field, tuple(row[n:] for row in red.entries))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    # -- misc ----------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.entries == other.entries
                and self.rows == other.rows and self.cols == other.cols)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: {body})"


@dataclass(frozen=True)
class Subspace:
    """Subspace of field^ambient_dim with canonical RREF basis rows."""

    field: object
    ambient_dim: int
    basis: Matrix

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise UsageError("vector length differs from ambient dimension")
        if not vectors:
            return cls(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim))
        red, rank, _ = Matrix(field, vectors).rref()
        return cls(field, ambient_dim, Matrix(field, red.entries[:rank], cols=ambient_dim))

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls.from_vectors(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def reduce(self, vec) -> tuple:
        """Remainder of vec after elimination against the basis rows."""
        v = list(vec)
        for row in self.basis.entries:
            pc = next(i for i, a in enumerate(row) if a)
            if v[pc]:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise UsageError("vector length differs from ambient dimension")
        return vec_is_zero(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.entries)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))


# ---------------------------------------------------------------------------
# operation wrappers

def rref(m: Matrix):
    """(reduced row echelon form, rank)."""
    red, rank, _ = m.rref()
    return red, rank


def kernel_basis(m: Matrix) -> Subspace:
    return m.kernel()


def solve_linear(a: Matrix, b) -> Optional[tuple]:
    return a.solve(tuple(b))


def quotient_dim(z: Subspace, b: Subspace) -> int:
    """dim(z/b); raises ContainmentError unless b is contained in z."""
    if z.field != b.field or z.ambient_dim != b.ambient_dim:
        raise UsageError("quotient of subspaces of different ambient spaces")
    if not z.contains_subspace(b):
        raise ContainmentError("denominator subspace is not contained in the numerator")
    return z.dim - b.dim


def enumerate_vectors(field, dim: int) -> Iterator[tuple]:
    """All p^dim columns over GF(p) in lexicographic residue order."""
    if not field.is_prime_field:
        raise UnsupportedEnumerationError("vector enumeration needs a finite field")
    p = field.p
    weights = [p ** (dim - 1 - k) for k in range(dim)]
    for idx in range(p ** dim):
        yield tuple(ModP((idx // w) % p, p) for w in weights)
