"""Exact p-adic arithmetic on rationals: valuations, norms, vectors, matrices.

Everything here is exact.  Rational numbers carry their p-adic valuation
exactly (valuation of a Fraction is valuation(numerator) - valuation(denominator)),
so norms are exact powers of p represented as Fractions, and matrix inversion
is exact Gaussian elimination over the rationals.

A vector computes its shell log_p |x|_p once and keeps it.  A sampled point
(`_sampled_vector`) carries its shell, its integer units and their common
scale, and builds its Fraction coordinates on first read.  A scalar matrix
s I built by `PAdicMatrix.scalar` carries s and builds its rows on first
read: it is singular iff s = 0, its determinant is s^n, and
shell(s x) = shell(x) - valuation(s) without forming s x, read from the
numerator and denominator of s.  Values built on first read are the ones an
eager build gives, so equality, hashing, repr, pickling and copying do not
see the difference.

check_prime admits a plain int it has accepted before without testing it
again; anything else (True, 2.0, an int subclass, a new int) takes the full
check, so every rejection is as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


#: plain ints check_prime has accepted: only primes, so it changes no result
_ACCEPTED_PRIMES: set[int] = set()


def check_prime(p: int) -> int:
    if type(p) is int and p in _ACCEPTED_PRIMES:
        return p
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p!r}")
    if type(p) is int:
        _ACCEPTED_PRIMES.add(p)
    return p


def _int_valuation(m: int, p: int) -> int:
    """Valuation of a nonzero int; p is already checked."""
    m, v = abs(m), 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _valuation(x: int | Fraction, p: int) -> int | float:
    """valuation for a p already checked."""
    if not x:
        return math.inf
    if isinstance(x, Fraction):
        # lowest terms: p divides at most one of numerator and denominator
        den = x.denominator
        if den % p == 0:
            return -_int_valuation(den, p)
        return _int_valuation(x.numerator, p)
    return _int_valuation(int(x), p)


def valuation(x: int | Fraction, p: int) -> int | float:
    """p-adic valuation; valuation(0) is +inf by convention."""
    return _valuation(x, check_prime(p))


def pnorm(x: int | Fraction, p: int) -> Fraction:
    """|x|_p = p^(-valuation(x)) as an exact Fraction; |0|_p = 0."""
    v = valuation(x, p)
    if v is math.inf:
        return Fraction(0)
    return Fraction(p) ** (-v)


def log_norm(x: int | Fraction, p: int) -> int | float:
    """log_p |x|_p = -valuation(x); -inf for 0."""
    v = valuation(x, p)
    return -v if v is not math.inf else -math.inf


_ZERO = Fraction(0)


def _exact(c: int | Fraction) -> Fraction:
    """c as a Fraction, without re-wrapping one that already is."""
    return c if type(c) is Fraction else Fraction(c)


def _dot(row: tuple[Fraction, ...], coords: tuple[Fraction, ...]) -> Fraction:
    """Exact sum of row[j] * coords[j], skipping the zero products."""
    terms = [a * c for a, c in zip(row, coords) if a and c]
    return sum(terms[1:], terms[0]) if terms else _ZERO


@dataclass(frozen=True)
class PAdicVector:
    """A point of Q_p^n with exact rational coordinates."""

    p: int
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        object.__setattr__(self, "coords", tuple(_exact(c) for c in self.coords))
        if not self.coords:
            raise ValueError("vector needs at least one coordinate")
        self.__dict__["_n"] = len(self.coords)

    def __getattr__(self, name: str):
        # only a sampled point lacks `coords`: u * num / den per integer unit u,
        # an integer when den == 1 (shell <= 0), so it needs no gcd
        d = self.__dict__
        if name != "coords" or "_units" not in d:
            raise AttributeError(name)
        num, den = d["_scale"]
        units = d["_units"]
        coords = d["coords"] = tuple(
            [Fraction(u * num) for u in units] if den == 1 else [Fraction(u * num, den) for u in units]
        )
        return coords

    @property
    def n(self) -> int:
        return self._n

    def norm(self) -> Fraction:
        """max norm: |x|_p = max_j |x_j|_p."""
        return max(pnorm(c, self.p) for c in self.coords)

    def shell(self) -> int | float:
        """log_p |x|_p; -inf for the zero vector.  Computed once, then kept."""
        s = self.__dict__.get("_shell")
        if s is None:
            s = self.__dict__["_shell"] = -min(_valuation(c, self.p) for c in self.coords)
        return s

    def scale(self, t: int | Fraction) -> "PAdicVector":
        return PAdicVector(self.p, tuple(Fraction(t) * c for c in self.coords))


def _sampled_vector(p: int, units: list[int], num: int, den: int, shell: int) -> PAdicVector:
    """The point with coordinates u * num / den, u in `units`, on a known shell;
    p is checked and the coordinates are built on first read."""
    x = object.__new__(PAdicVector)
    x.__dict__.update(p=p, _n=len(units), _units=units, _scale=(num, den), _shell=shell)
    return x


def _check_square(rows: tuple[tuple[Fraction, ...], ...]) -> None:
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")


@dataclass(frozen=True)
class PAdicMatrix:
    """An n x n rational matrix acting on Q_p^n, with exact p-adic data."""

    p: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        rows = tuple(tuple(_exact(e) for e in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        _check_square(rows)
        self.__dict__["_n"] = len(rows)

    def __getattr__(self, name: str):
        # only a scalar matrix s I lacks `rows`
        d = self.__dict__
        if name != "rows" or "_scalar" not in d:
            raise AttributeError(name)
        n, s = d["_n"], d["_scalar"]
        rows = d["rows"] = tuple(tuple(s if i == j else _ZERO for j in range(n)) for i in range(n))
        return rows

    @property
    def n(self) -> int:
        return self._n

    def norm(self) -> Fraction:
        """operator norm for the max norm: ||A||_p = max_ij |a_ij|_p."""
        return max(pnorm(e, self.p) for row in self.rows for e in row)

    def log_norm(self) -> int | float:
        return max(log_norm(e, self.p) for row in self.rows for e in row)

    def is_singular(self) -> bool:
        """det A == 0; for A = s I, s == 0 without forming s^n."""
        s = self.__dict__.get("_scalar")
        return s.numerator == 0 if s is not None else self.det() == 0

    def det(self) -> Fraction:
        """exact determinant: the product of the elimination pivots, s^n for s I."""
        n = self.n
        s = self.__dict__.get("_scalar")
        if s is not None:
            return s ** n
        m = [list(row) for row in self.rows]
        negate = False
        for col in range(n):
            for pivot in range(col, n):
                if m[pivot][col]:
                    break
            else:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                negate = not negate
            det = m[col][col] if col == 0 else det * m[col][col]
            for r in range(col + 1, n):
                if not m[r][col]:
                    continue
                factor = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
        return -det if negate else det

    def inverse(self) -> "PAdicMatrix":
        """exact inverse via Gauss-Jordan elimination; raises on singular input."""
        n = self.n
        m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            inv = Fraction(1) / m[col][col]
            m[col] = [e * inv for e in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        return PAdicMatrix(self.p, tuple(tuple(row[n:]) for row in m))

    def matvec(self, x: PAdicVector) -> PAdicVector:
        if x.p != self.p or x.n != self.n:
            raise ValueError("mismatched matrix and vector")
        return PAdicVector(self.p, tuple(_dot(row, x.coords) for row in self.rows))

    def image_shell(self, x: PAdicVector) -> int | float:
        """shell(A x); for A = s I it is shell(x) - valuation(s), -inf when s = 0."""
        d = self.__dict__
        s = d.get("_scalar")
        if s is None:
            return self.matvec(x).shell()
        p = d["p"]
        if x.p != p or x._n != d["_n"]:
            raise ValueError("mismatched matrix and vector")
        num, den = s.numerator, s.denominator
        if not num:
            return -math.inf
        # lowest terms: p divides at most one of num and den
        return x.shell() + _int_valuation(den, p) if den % p == 0 else x.shell() - _int_valuation(num, p)

    @staticmethod
    def identity(p: int, n: int) -> "PAdicMatrix":
        return PAdicMatrix(p, tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @staticmethod
    def scalar(p: int, n: int, s: int | Fraction) -> "PAdicMatrix":
        """s I on Q_p^n; its rows are built on first read."""
        s = _exact(s)
        check_prime(p)
        if n < 1:
            raise ValueError("matrix must be square and nonempty")
        a = object.__new__(PAdicMatrix)
        a.__dict__.update(p=p, _n=n, _scalar=s)
        return a
