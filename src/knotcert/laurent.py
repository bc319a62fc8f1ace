"""Exact arithmetic in Z[t, t^-1]: Laurent polynomials, cyclotomic
polynomials, gcds, and minors of :class:`~knotcert.intlinalg.Matrix`
instances over the Laurent ring.

A Laurent polynomial is stored sparsely as a map from integer exponent to
integer coefficient.  All arithmetic is exact; there is no floating point
anywhere in this module.  The units of Z[t, t^-1] are +-t^k, so equality
"up to units" is decided by comparing canonical forms (see
:meth:`LaurentPoly.canonical`).

Two kernels here carry the heavy work.  :func:`_divmod_dense` is the only
polynomial long-division loop: :func:`divide_exact`, :func:`divides` and
the pseudo-remainders of :func:`laurent_gcd` all go through it.  It costs
len(quot)*nnz(den) coefficient operations, where nnz counts the divisor's
nonzero terms, so sparse torus-knot divisors are cheap however wide their
degree span.
The determinants of :func:`laurent_det` run through
``intlinalg.bareiss_det``, the only fraction-free elimination.
:func:`cyclotomic_divisor_test` decides whether cyclotomic(n) divides a
polynomial by folding its exponents mod n, without dividing.
:func:`cyclotomic` is a Moebius product of binomials 1 - t^d, run on a
dense series truncated at degree phi(n); nothing in this module is cached.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable

from .intlinalg import Matrix, bareiss_det


class NotDivisible(ArithmeticError):
    """Exact division failed: the divisor does not divide the dividend."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class InvalidIndex(ValueError):
    """Cyclotomic index must be a positive integer."""


class AllZero(ValueError):
    """gcd of an empty or all-zero family is undefined."""


class SizeTooLarge(ValueError):
    """Requested minor size exceeds a matrix dimension."""


class LaurentPoly:
    """An element of Z[t, t^-1] with arbitrary-precision coefficients.

    >>> f = LaurentPoly({0: 1, 1: -1, 2: 1})
    >>> str(f)
    '1 - t + t^2'
    >>> str(f * f.shifted(-2))
    't^-2 - 2*t^-1 + 3 - 2*t + t^2'
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        self._coeffs = acc

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t_power(cls, exp: int) -> "LaurentPoly":
        return cls({exp: 1})

    def items(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs."""
        return tuple(sorted(self._coeffs.items()))

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no minimum exponent")
        return min(self._coeffs)

    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no maximum exponent")
        return max(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self.items())

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            acc[e] = acc.get(e, 0) + c
            if not acc[e]:
                del acc[e]
        out = LaurentPoly.zero()
        out._coeffs = acc
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
                if not acc[e]:
                    del acc[e]
        out = LaurentPoly.zero()
        out._coeffs = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def canonical(self) -> "LaurentPoly":
        """The unique unit multiple with minimum exponent 0 and positive
        lowest coefficient; canonical(0) = 0.  Idempotent.

        >>> str(LaurentPoly({-1: -1, -2: 1}).canonical())
        '1 - t'
        """
        if not self._coeffs:
            return self
        m = self.min_exp()
        shifted = self.shifted(-m)
        if shifted.coeff(0) < 0:
            return -shifted
        return shifted

    def is_unit(self) -> bool:
        """True for +-t^k."""
        return len(self._coeffs) == 1 and abs(next(iter(self._coeffs.values()))) == 1

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._coeffs.values()) if self._coeffs else 0

    def value_at_one(self) -> int:
        return sum(self._coeffs.values())

    def dense_coeffs(self) -> list[int]:
        """Coefficients from min_exp to max_exp inclusive ([] for zero)."""
        if not self._coeffs:
            return []
        lo = self.min_exp()
        dense = [0] * (self.max_exp() - lo + 1)
        for e, c in self._coeffs.items():
            dense[e - lo] = c
        return dense

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                body = str(abs(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def _divmod_dense(num: list[int], den: list[int]) -> tuple[list[int], list[int]] | None:
    """Long division in Z[t] of dense coefficient lists, lowest degree
    first, with den[-1] != 0.

    Returns (quot, rem) with num = quot*den + rem and len(rem) < len(den),
    or None as soon as the leading coefficient of den fails to divide the
    current top coefficient of the remainder, which can only happen when
    den is not monic up to sign.

    Each quotient step subtracts only the nonzero terms of den, so the
    cost is len(quot)*nnz(den), not len(quot)*len(den).

    >>> _divmod_dense([-1, 0, 1], [-1, 1])
    ([1, 1], [0])
    >>> _divmod_dense([1, 0, 1], [1, 2]) is None
    True
    """
    rem = list(num)
    n = len(den) - 1
    lead = den[-1]
    terms = [(j, d) for j, d in enumerate(den) if d]
    quot = [0] * max(len(num) - n, 0)
    for i in range(len(quot) - 1, -1, -1):
        top = rem[i + n]
        if top == 0:
            continue
        q, r = divmod(top, lead)
        if r:
            return None
        quot[i] = q
        for j, d in terms:
            rem[i + j] -= q * d
    return quot, rem[:n]


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Return q with f = q*g, or raise NotDivisible.

    Divisibility in Z[t, t^-1] reduces to divisibility in Z[t] after
    stripping the unit t^min_exp from each operand.
    """
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero()
    qr = _divmod_dense(f.dense_coeffs(), g.dense_coeffs())
    if qr is None or any(qr[1]):
        raise NotDivisible(f"({f}) is not divisible by ({g})")
    shift = f.min_exp() - g.min_exp()
    return LaurentPoly({i + shift: c for i, c in enumerate(qr[0])})


def divides(g: LaurentPoly, f: LaurentPoly) -> bool:
    """True when g divides f in Z[t, t^-1]."""
    if g.is_zero() or f.is_zero():
        return f.is_zero()
    qr = _divmod_dense(f.dense_coeffs(), g.dense_coeffs())
    return qr is not None and not any(qr[1])


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending, by trial division up to
    sqrt(n).

    >>> _prime_factors(57840)
    [2, 3, 5, 241]
    """
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def _check_index(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidIndex(f"cyclotomic index must be a positive integer, got {n!r}")


def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, the minimal polynomial of a
    primitive n-th root of unity.

    Computed as the Moebius product of (1 - t^d)^mu(n/d) over the d | n
    with n/d squarefree (Arnold and Monagan, "Calculating cyclotomic
    polynomials", Math. Comp. 80, 2011), as a dense power series truncated
    at degree phi(n), with no cache.  For n >= 2 the mu(n/d) sum to 0, so
    this equals the product of (t^d - 1)^mu(n/d) with no sign fix-up.
    Over Z, a primitive n-th root of unity is a root of f exactly when
    cyclotomic(n) divides f; :func:`cyclotomic_divisor_test` decides that
    without building cyclotomic(n).

    >>> str(cyclotomic(12))
    '1 - t^2 + t^4'
    """
    _check_index(n)
    if n == 1:
        return LaurentPoly({1: 1, 0: -1})
    primes = _prime_factors(n)
    deg = n
    for q in primes:
        deg = deg // q * (q - 1)
    series = [1] + [0] * deg
    for r in range(len(primes) + 1):
        for qs in itertools.combinations(primes, r):
            d = n // math.prod(qs)
            if d > deg:  # 1 - t^d = 1 mod t^(phi(n) + 1)
                continue
            if r % 2:  # mu = -1: divide by 1 - t^d, upward
                for i in range(d, deg + 1):
                    series[i] += series[i - d]
            else:  # mu = +1: multiply by 1 - t^d, downward
                for i in range(deg, d - 1, -1):
                    series[i] -= series[i - d]
    return LaurentPoly(enumerate(series))


def cyclotomic_divisor_test(n: int) -> Callable[[LaurentPoly], bool]:
    """The predicate f -> (cyclotomic(n) divides f in Z[t, t^-1]), decided
    without building or dividing by cyclotomic(n).

    The predicate folds the exponents of f mod n and multiplies by
    K = prod (1 - t^(n/q)) over the primes q | n, mod t^n - 1; cyclotomic(n)
    divides f exactly when the result is 0.  t^n - 1 is squarefree over Q
    and is the product of the cyclotomic(d), d | n.  K vanishes at every
    primitive d-th root of unity for d | n proper, since d divides some
    n/q, and not at a primitive n-th root.  So by the Chinese remainder
    theorem f*K = 0 mod t^n - 1 exactly when f vanishes at a primitive
    n-th root, and cyclotomic(n) is monic, so by Gauss's lemma divisibility
    over Q is divisibility over Z.  n is factored and the 2^omega(n) terms
    of K are expanded once, here; each call then costs nnz(f)*2^omega(n)
    dict operations.  The zero polynomial is divisible.

    >>> in_phi_12 = cyclotomic_divisor_test(12)
    >>> in_phi_12(LaurentPoly({4: 1, 2: -1, 0: 1}).shifted(-7)), in_phi_12(LaurentPoly({2: 1, 0: -1}))
    (True, False)
    """
    _check_index(n)
    kernel: dict[int, int] = {0: 1}
    for q in _prime_factors(n):
        for e, c in list(kernel.items()):  # times 1 - t^(n/q), mod t^n - 1
            shifted = (e + n // q) % n
            kernel[shifted] = kernel.get(shifted, 0) - c
    kernel_terms = [(e, c) for e, c in kernel.items() if c]

    def divides_by_folding(f: LaurentPoly) -> bool:
        acc: dict[int, int] = {}
        for e, c in f._coeffs.items():
            for s, w in kernel_terms:
                i = (e + s) % n
                acc[i] = acc.get(i, 0) + c * w
        return not any(acc.values())

    return divides_by_folding


def _primitive_part(f: LaurentPoly) -> LaurentPoly:
    c = f.content()
    if c <= 1:
        return f.canonical()
    return LaurentPoly({e: coef // c for e, coef in f.items()}).canonical()


def _pp_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    # Primitive polynomial-remainder sequence on primitive, canonical inputs.
    while not b.is_zero():
        da = a.max_exp() - a.min_exp()
        db = b.max_exp() - b.min_exp()
        if da < db:
            a, b = b, a
            continue
        if db == 0:
            # b is a unit times a constant; primitive, so gcd is 1
            return LaurentPoly.one()
        lead = b.coeff(b.max_exp())
        # scaling by lead^(da-db+1) makes every division step exact
        qr = _divmod_dense((a * lead ** (da - db + 1)).dense_coeffs(), b.dense_coeffs())
        assert qr is not None
        a, b = b, _primitive_part(LaurentPoly(dict(enumerate(qr[1]))))
    return a.canonical()


def laurent_gcd(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Canonical gcd of a family of Laurent polynomials.

    Computed as the gcd of the integer contents times the gcd of the
    primitive parts; the result divides every input and is canonical.
    """
    nonzero = [f for f in polys if not f.is_zero()]
    if not nonzero:
        raise AllZero("gcd requires at least one nonzero polynomial")
    content = 0
    for f in nonzero:
        content = math.gcd(content, f.content())
    g = _primitive_part(nonzero[0])
    for f in nonzero[1:]:
        if g == LaurentPoly.one():
            break
        g = _pp_gcd(g, _primitive_part(f))
    return (g * content).canonical()


def laurent_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant over Z[t, t^-1] by :func:`bareiss_det`, so no rational
    arithmetic is needed.  The empty matrix has determinant 1.
    """
    return bareiss_det(rows, LaurentPoly.one(), divide_exact)


def minors(M: Matrix, k: int) -> list[LaurentPoly]:
    """All k x k minor determinants of M, canonicalized, with zeros and
    duplicates removed, in lexicographic order of (row set, column set).
    """
    if k > min(M.rows, M.cols):
        raise SizeTooLarge(
            f"minor size {k} exceeds matrix dimensions {M.rows}x{M.cols}"
        )
    if k < 0:
        raise SizeTooLarge(f"minor size must be nonnegative, got {k}")
    if k == 0:
        return [LaurentPoly.one()]
    grid = M.row_lists()
    seen = set()
    out = []
    for row_idx in itertools.combinations(range(M.rows), k):
        for col_idx in itertools.combinations(range(M.cols), k):
            sub = [[grid[i][j] for j in col_idx] for i in row_idx]
            det = laurent_det(sub).canonical()
            if det.is_zero():
                continue
            key = det.items()
            if key not in seen:
                seen.add(key)
                out.append(det)
    return out
