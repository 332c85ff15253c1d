"""Exact arithmetic in Z[2cos(pi/L)] and 3x3 matrices over it.

Elements are coefficient tuples of polynomials in theta = 2cos(pi/L),
reduced modulo the minimal polynomial of theta.  That polynomial is monic
with integer coefficients, so Z[theta] is closed under the ring operations:
elements built from integers and theta (every entry of a Tits reflection
matrix) keep plain ``int`` coefficients.  Zero tests are exact; no
floating point enters any decision path.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InternalError


# -- integer polynomials (dense coefficient lists, constant term first) --------

def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divexact(a: list, b: list) -> list:
    """Exact division of integer polynomials (remainder must be zero)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise InternalError("non-exact polynomial division")
        out[i] = q
        for j, y in enumerate(b):
            a[i + j] -= q * y
    if any(a):
        raise InternalError("non-exact polynomial division")
    return _poly_trim(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_divexact(num, den))


@lru_cache(maxsize=None)
def minimal_polynomial(L: int) -> tuple[int, ...]:
    """Minimal polynomial of 2cos(pi/L) over Q, constant term first, monic.

    Derived from the cyclotomic polynomial of order 2L via y = x + 1/x:
    the degree is phi(2L)/2 for L >= 2.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if L == 1:
        return (2, 1)  # 2cos(pi) = -2
    phi = list(cyclotomic_polynomial(2 * L))
    # phi is palindromic of even degree 2d; phi(x)/x^d = a_d + sum a_{d+k} z_k
    # where z_k = x^k + x^{-k} satisfies z_0 = 2, z_1 = y, z_k = y z_{k-1} - z_{k-2}
    d = (len(phi) - 1) // 2
    return tuple(_fold_palindromic(phi, d))


def _fold_palindromic(phi: list, d: int) -> list:
    zs = [[2], [0, 1]]
    for _ in range(2, d + 1):
        y_zc = [0] + zs[-1]
        nxt = [a - b for a, b in _zip_pad(y_zc, zs[-2])]
        zs.append(_poly_trim(nxt))
    psi = [phi[d]]
    for k in range(1, d + 1):
        a = phi[d + k]
        if a:
            psi = [p + a * z for p, z in _zip_pad(psi, zs[k])]
    return _poly_trim(psi)


def _zip_pad(a: list, b: list):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return zip(a, b)


# -- number field --------------------------------------------------------------

class RealCyclotomicField:
    """Z[theta], theta = 2cos(pi/L), inside Q(theta).  Elements are integer
    coefficient tuples of length deg(minpoly), reduced mod the minimal
    polynomial."""

    def __init__(self, L: int):
        self.L = L
        self.minpoly = minimal_polynomial(L)
        self.degree = len(self.minpoly) - 1

    # elements -----------------------------------------------------------------

    def zero(self):
        return (0,) * self.degree

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        return (n,) + (0,) * (self.degree - 1)

    def theta(self):
        if self.degree == 1:
            # theta is an integer: root of the monic degree-1 minimal polynomial
            return (-self.minpoly[0],)
        out = [0] * self.degree
        out[1] = 1
        return tuple(out)

    def two_cos_pi_over(self, k: int):
        """2cos(pi/k) for k dividing L, as a field element.

        Uses 2cos(n a) = T_n(2cos a) with the scaled Chebyshev recursion
        z_0 = 2, z_1 = x, z_n = x z_{n-1} - z_{n-2}, at n = L/k, a = pi/L."""
        if self.L % k:
            raise ValueError(f"{k} does not divide L={self.L}")
        n = self.L // k
        z_prev = self.from_int(2)
        z_cur = self.theta()
        if n == 0:
            raise ValueError("k must be positive")
        if n == 1:
            return z_cur
        for _ in range(2, n + 1):
            z_prev, z_cur = z_cur, self.sub(self.mul(self.theta(), z_cur), z_prev)
        return z_cur

    # arithmetic ----------------------------------------------------------------

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def dot(self, xs, ys):
        """sum(x * y for x, y in zip(xs, ys)), reduced once at the end."""
        d = self.degree
        prod = [0] * (2 * d - 1)
        for a, b in zip(xs, ys):
            nz = [(j, y) for j, y in enumerate(b) if y]
            if not nz:
                continue
            for i, x in enumerate(a):
                if x:
                    for j, y in nz:
                        prod[i + j] += x * y
        # reduce modulo the monic minimal polynomial
        minpoly = self.minpoly
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                for j in range(d):
                    prod[i - d + j] -= c * minpoly[j]
        return tuple(prod[:d])

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)


# -- 3x3 matrices ----------------------------------------------------------------

class Mat3:
    """Immutable 3x3 matrix over a RealCyclotomicField."""

    __slots__ = ("field", "rows")

    def __init__(self, field: RealCyclotomicField, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def identity(cls, field: RealCyclotomicField) -> "Mat3":
        z, o = field.zero(), field.one()
        return cls(field, ((o, z, z), (z, o, z), (z, z, o)))

    def __mul__(self, other: "Mat3") -> "Mat3":
        f = self.field
        cols = tuple(zip(*other.rows))
        return Mat3(f, [[f.dot(row, col) for col in cols] for row in self.rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat3) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def pow(self, n: int) -> "Mat3":
        if n < 0:
            raise ValueError("negative matrix power not supported here")
        result = Mat3.identity(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self == Mat3.identity(self.field)
