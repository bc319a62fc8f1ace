"""Exact arithmetic in Z[t, t^-1]: Laurent polynomials, cyclotomic
polynomials, gcds, and minors of :class:`~knotcert.intlinalg.Matrix`
instances over the Laurent ring.

A Laurent polynomial is stored sparsely as a map from integer exponent to
integer coefficient.  All arithmetic is exact; there is no floating point
anywhere in this module.  The units of Z[t, t^-1] are +-t^k, so equality
"up to units" is decided by comparing canonical forms (see
:meth:`LaurentPoly.canonical`).

Two kernels here carry the heavy work: exact division and the
determinant.

Exact division has two routes, both behind :func:`_quotient`, so
:func:`divide_exact` and :func:`divides` take the same one, picked by the
divisor's shape alone.

- A divisor +-t^a*(1 - t^d) takes :func:`_binomial_quotient`: running
  sums over the residue classes mod d of the dividend's exponents, in
  O(nnz*log nnz + nnz(quot)) for nnz the dividend's nonzero terms.  Long
  division costs at least the quotient's span, and the Alexander
  polynomial of T(e, e + 1) has about 2e terms over a span of about e^2.
- Any other divisor takes :func:`_long_quotient`, through
  :func:`_divmod_dense`, the only polynomial long-division loop.  It
  costs len(quot)*nnz(den) coefficient operations in Python, where nnz
  counts the divisor's nonzero terms, so sparse torus-knot divisors are
  cheap however wide their degree span.

The pseudo-remainders of :func:`laurent_gcd` are long divisions too; a
divisor that divides leaves a zero remainder, which ends the sequence.
:func:`laurent_det` evaluates every entry at t = 2^(8w) and packs it into
one integer (Kronecker substitution, :func:`_pack`), at a width an
a-priori norm bound makes exact, takes one determinant over Z, and reads
the coefficients back as balanced digits (:func:`_unpack`): no Laurent
product or division runs inside a determinant.
:func:`cyclotomic` is a Moebius product of binomials 1 - t^d, run on a
dense series truncated at degree phi(n); nothing in this module is cached.
:func:`cyclotomic_multiplicity` reads how often cyclotomic(n) divides a
product of binomials t^a - 1 off the exponents, with no polynomial built.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
import sys
from typing import Iterable, Mapping

from .intlinalg import Matrix, bareiss_det


class NotDivisible(ArithmeticError):
    """Exact division failed: the divisor does not divide the dividend."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class InvalidIndex(ValueError):
    """Cyclotomic index must be a positive integer."""


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
    def _trusted(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """A polynomial holding coeffs as its own map, unchecked: every value
        must be nonzero, which is what __init__ would otherwise ensure."""
        out = cls.__new__(cls)
        out._coeffs = coeffs
        return out

    @classmethod
    def _from_dense(cls, dense: list[int], lo: int = 0) -> "LaurentPoly":
        """sum(dense[i] * t^(lo + i)), keeping only the nonzero entries."""
        return cls._trusted(
            dict(zip(itertools.compress(range(lo, lo + len(dense)), dense), filter(None, dense)))
        )

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
        return LaurentPoly._trusted({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            acc[e] = acc.get(e, 0) + c
            if not acc[e]:
                del acc[e]
        return LaurentPoly._trusted(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return LaurentPoly._trusted({e: c * other for e, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
                if not acc[e]:
                    del acc[e]
        return LaurentPoly._trusted(acc)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        return LaurentPoly._trusted({e + k: c for e, c in self._coeffs.items()})

    def times_binomial(self, a: int) -> "LaurentPoly":
        """self * (t^a - 1): one shifted map, then one pass subtracting self.

        >>> str(LaurentPoly({0: 1, 1: 1}).times_binomial(1))
        '-1 + t^2'
        """
        coeffs = self._coeffs
        acc = {e + a: c for e, c in coeffs.items()}
        for e, c in coeffs.items():
            x = acc.get(e, 0) - c
            if x:
                acc[e] = x
            else:
                del acc[e]
        return LaurentPoly._trusted(acc)

    def canonical(self) -> "LaurentPoly":
        """The unique unit multiple with minimum exponent 0 and positive
        lowest coefficient; canonical(0) = 0.  Idempotent.

        >>> str(LaurentPoly({-1: -1, -2: 1}).canonical())
        '1 - t'
        """
        if not self._coeffs:
            return self
        m = self.min_exp()
        if self._coeffs[m] > 0:
            return self.shifted(-m) if m else self
        return LaurentPoly._trusted({e - m: -c for e, c in self._coeffs.items()})

    def is_unit(self) -> bool:
        """True for +-t^k."""
        return len(self._coeffs) == 1 and abs(next(iter(self._coeffs.values()))) == 1

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._coeffs.values()) if self._coeffs else 0

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
    terms = list(zip(itertools.compress(range(len(den)), den), filter(None, den)))
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


# (w, fmt): a digit of w bytes, read and written natively as the signed
# memoryview format fmt; laurent_det evaluates at xi = 2^(8w)
_CELLS = tuple((struct.calcsize(fmt), fmt) for fmt in "bhiq")


def _digit(bound: int) -> tuple[int, str | None]:
    """The least digit (w, fmt) with bound < xi/2 = 2^(8w - 1): the first
    native cell of _CELLS wide enough, else ceil((bits + 1)/8) bytes with
    fmt None.

    >>> _digit(127), _digit(128), _digit(2**63 - 1), _digit(2**63)
    ((1, 'b'), (2, 'h'), (8, 'q'), (9, None))
    """
    w = bound.bit_length() // 8 + 1
    for cell in _CELLS:
        if w <= cell[0]:
            return cell
    return w, None


def _half_digits(n: int, w: int) -> int:
    """The n-digit integer in base 2^(8w) whose every digit is 2^(8w - 1)."""
    return int.from_bytes((1 << 8 * w - 1).to_bytes(w, "little") * n, "little")


def _pack(coeffs: dict[int, int], lo: int, n: int, w: int, fmt: str | None) -> int:
    """f(xi) for xi = 2^(8w) and f = sum c*t^(e - lo) over coeffs, with
    0 <= e - lo < n and every |c| < xi/2.

    The terms are written into a little-endian buffer of n digits:
    through a memoryview cast to the native cell fmt on a little-endian
    host, else (any other host, or a digit wider than 8 bytes, fmt None)
    by int.to_bytes per term.  Python touches only the nonzero terms; the
    passes over all n digits run inside int.

    >>> _pack({3: -1, 4: 5, 5: -1}, 3, 3, 1, "b") == -1 + 5 * 256 - 256**2
    True
    >>> _pack(dict.fromkeys(range(9), -2**70), 0, 9, 9, None) == -2**70 * sum(2**(72 * i) for i in range(9))
    True
    """
    buf = bytearray(n * w)
    if fmt and sys.byteorder == "little":
        with memoryview(buf).cast(fmt) as cells:
            for e, c in coeffs.items():
                cells[e - lo] = c
    else:
        for e, c in coeffs.items():
            i = (e - lo) * w
            buf[i : i + w] = c.to_bytes(w, "little", signed=True)
    packed = int.from_bytes(buf, "little")
    del buf
    # each digit holds c mod xi; flipping its top bit gives c + xi/2 with
    # no carry, and off takes the xi/2 back out of every digit
    off = _half_digits(n, w)
    return (packed ^ off) - off


def _unpack(x: int, m: int, w: int, fmt: str | None) -> list[int] | None:
    """The m balanced digits of x in base xi = 2^(8w), each in
    [-xi/2, xi/2), lowest first, or None when x has no such form; the
    inverse of :func:`_pack`.  Digits are read from little-endian bytes
    through a memoryview cast to the native cell fmt on a little-endian
    host, else by int.from_bytes per digit.

    >>> _unpack(-1 + 5 * 256 - 256**2, 3, 1, "b"), _unpack(256**3, 3, 1, "b")
    ([-1, 5, -1], None)
    """
    off = _half_digits(m, w)
    x += off
    if x < 0 or x.bit_length() > 8 * w * m:
        return None
    raw = (x ^ off).to_bytes(m * w, "little")
    if fmt and sys.byteorder == "little":
        return memoryview(raw).cast(fmt).tolist()
    return [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, m * w, w)]


def _long_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num/den by :func:`_divmod_dense`, or None; num and den nonzero."""
    qr = _divmod_dense(num.dense_coeffs(), den.dense_coeffs())
    if qr is None or any(qr[1]):
        return None
    return LaurentPoly._from_dense(qr[0], num.min_exp() - den.min_exp())


def _binomial_quotient(num: LaurentPoly, a: int, d: int, sign: int) -> LaurentPoly | None:
    """num/(sign*t^a*(t^d - 1)) for sign = +-1 and d >= 1 when that is a
    Laurent polynomial, else None; num is nonzero.

    num = h*(t^d - 1) means num_e = h_(e-d) - h_e for every e, so h_e is
    minus the running sum of num over the exponents x <= e with
    x = e (mod d), and h exists exactly when each residue class of num
    sums to 0.  The terms are sorted once and grouped by class.  Between
    two consecutive exponents x < y of a class, h takes one value at x,
    x + d, ..., below y, and a nonzero one is written there, times sign
    and shifted by -a: one assignment when y = x + d, the common case for
    a sparse num, else one dict.fromkeys over the run.  The cost is
    O(nnz(num)*log nnz(num) + nnz(quot)), however wide the span of num.

    >>> str(_binomial_quotient(LaurentPoly({0: -1, 6: 1}), 0, 2, 1))
    '1 + t^2 + t^4'
    >>> _binomial_quotient(LaurentPoly({0: -1, 5: 1}), 0, 2, 1) is None
    True
    """
    coeffs = num._coeffs
    classes: dict[int, list[int]] = {}
    for e in sorted(coeffs):
        classes.setdefault(e % d, []).append(e)
    quot: dict[int, int] = {}
    for exps in classes.values():
        run = 0
        for x, y in zip(exps, exps[1:]):
            run -= coeffs[x]
            if run and y - x == d:
                quot[x - a] = sign * run
            elif run:
                quot.update(dict.fromkeys(range(x - a, y - a, d), sign * run))
        if run != coeffs[exps[-1]]:  # the class does not sum to 0
            return None
    return LaurentPoly._trusted(quot)


def _quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num/den when den divides num, else None; num and den nonzero.  A
    divisor +-t^a*(1 - t^d) takes :func:`_binomial_quotient`, any other
    :func:`_long_quotient`."""
    if len(den._coeffs) == 2:
        (a, low), (b, high) = sorted(den._coeffs.items())
        if low == -high and high in (1, -1):
            return _binomial_quotient(num, a, b - a, high)
    return _long_quotient(num, den)


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Return q with f = q*g, or raise NotDivisible.

    Divisibility in Z[t, t^-1] reduces to divisibility in Z[t] after
    stripping the unit t^min_exp from each operand.
    """
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero()
    q = _quotient(f, g)
    if q is None:
        raise NotDivisible(f"({f}) is not divisible by ({g})")
    return q


def divides(g: LaurentPoly, f: LaurentPoly) -> bool:
    """True when g divides f in Z[t, t^-1]."""
    if g.is_zero() or f.is_zero():
        return f.is_zero()
    return _quotient(f, g) is not None


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
    For f a product of binomials t^a - 1, :func:`cyclotomic_multiplicity`
    decides whether cyclotomic(n) divides f without building it.

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
    return LaurentPoly._from_dense(series)


def cyclotomic_multiplicity(n: int, binomials: Mapping[int, int]) -> int:
    """The multiplicity of cyclotomic(n) in f = prod (t^a - 1)^s over the
    pairs a: s of binomials, every a >= 1; when f lies in Z[t, t^-1],
    cyclotomic(n) divides f exactly when the result is at least 1.

    t^a - 1 is the product of the cyclotomic(d) over d | a, each once, and
    the cyclotomic(d) are irreducible and pairwise distinct.  So over Q[t]
    f has cyclotomic(n) to the power sum(s for a with n | a), and no
    polynomial is built.  cyclotomic(n) is monic, so by Gauss's lemma it
    divides f in Z[t] exactly when it does in Q[t]; it does not vanish at
    0, so it is prime to t and the same holds in Z[t, t^-1].  The rule
    trusts that the binomials describe f: a caller holding f checks that.

    >>> cyclotomic_multiplicity(12, {12: 1, 1: 1, 3: -1, 4: -1})
    1
    >>> cyclotomic_multiplicity(2, {12: 1, 1: 1, 3: -1, 4: -1})
    0
    """
    _check_index(n)
    return sum(s for a, s in binomials.items() if a % n == 0)


def _primitive_part(f: LaurentPoly) -> LaurentPoly:
    c = f.content()
    if c <= 1:
        return f.canonical()
    return LaurentPoly._trusted({e: coef // c for e, coef in f._coeffs.items()}).canonical()


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
        a, b = b, _primitive_part(LaurentPoly._from_dense(qr[1]))
    return a.canonical()


def laurent_gcd(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Canonical gcd of a family of Laurent polynomials.

    Computed as the gcd of the integer contents times the gcd of the
    primitive parts; the result divides every input and is canonical.  A
    family with no nonzero member, the empty one included, generates the
    zero ideal, whose generator is 0.
    """
    nonzero = [f for f in polys if not f.is_zero()]
    if not nonzero:
        return LaurentPoly.zero()
    content = 0
    for f in nonzero:
        content = math.gcd(content, f.content())
    g = _primitive_part(nonzero[0])
    for f in nonzero[1:]:
        if g == LaurentPoly.one():
            break
        g = _pp_gcd(g, _primitive_part(f))
    return (g * content).canonical()


def _subset_steps(n: int) -> tuple[tuple[int, int, int, int, bool], ...]:
    """The steps (i, j, cols, grown, negate) of :func:`_subset_det` for
    n x n: row i extends the minor on rows 0..i-1 and the column set cols
    (a bit mask of size i) by a column j outside it, into the mask grown,
    with the sign of the number of columns of cols past j."""
    return tuple(
        (i, j, cols, cols | 1 << j, bool((cols >> j).bit_count() & 1))
        for i in range(n)
        for cols in range(1 << n)
        if cols.bit_count() == i
        for j in range(n)
        if not cols >> j & 1
    )


# _subset_steps(n) for n <= 6: n*2^(n-1) steps each, 321 in all
_SUBSET_STEPS = tuple(map(_subset_steps, range(7)))


def _subset_det(rows: list[list[int]]) -> int:
    """Determinant of an n x n integer matrix, n <= 6, without division,
    by expansion over column subsets: n*2^(n-1) products, and none for a
    zero entry or a zero minor.

    >>> _subset_det([[2, 1, 0], [4, 5, 1], [0, 3, 7]])
    36
    """
    n = len(rows)
    dets = [1] + [0] * ((1 << n) - 1)
    for i, j, cols, grown, negate in _SUBSET_STEPS[n]:
        a, d = rows[i][j], dets[cols]
        if a and d:
            dets[grown] += -a * d if negate else a * d
    return dets[-1]


def laurent_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant over Z[t, t^-1] as one integer determinant, by
    Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009): no
    Laurent product or division runs.  The empty matrix has determinant 1.

    Row i is shifted by its lowest exponent r_i, so its entries are
    polynomials of degree < s_i, the row's span, and the determinant has
    m = sum(s_i) - n + 1 coefficients.  B, the smaller of the products of
    the row and of the column l1 norms, bounds each of them, since the
    determinant is a signed sum of products of one entry per row (and per
    column) and ||fg||_1 <= ||f||_1*||g||_1.  Evaluation at xi = 2^(8w),
    with w the least width with B < xi/2 (:func:`_digit`), is a ring
    homomorphism, so det(A)(xi) = det(A(xi)), and its m balanced digits
    are the coefficients: the read-back is exact with no check.

    The integer determinant is :func:`_subset_det` for n <= 6 and
    :func:`bareiss_det` beyond.  CPython 3.11's big-int division is
    quadratic, so on small matrices Bareiss's divisions of packed integers
    cost more than the products they save.  ``gamma_artifacts(p)``, when
    it took every 1 x 1 to 3 x 3 minor of both Fox matrices, measured
    (CPython 3.11.7, 2-core Xeon, best of 3, three rounds; seconds) with
    each determinant taken by:

    ===================================  ===========  ===========  =========
    determinant                          p = 20       p = 40       p = 80
    ===================================  ===========  ===========  =========
    Bareiss over Z[t, t^-1]              0.029-0.052  0.22-0.29    1.9-2.1
    Bareiss on the packed integers       0.018-0.020  0.092-0.097  2.2-2.4
    subset expansion, packed integers    0.014-0.016  0.051-0.056  0.34-0.37
    ===================================  ===========  ===========  =========

    Under cProfile at p = 80, 16 divisions take 1.9 s of the 2.8 s of
    Bareiss on the packed integers.

    The cutoff n <= 6 is set from seeded random n x n matrices of three
    entry shapes: small (1-4 terms, span 4, |c| <= 2, 30% zeros, like the
    Fox matrices of knot presentations), mid (10-30 terms, span 40,
    |c| <= 3) and big (150-300 terms, span 300, |c| <= 1000).
    Milliseconds per determinant, same host, best of 3-5, with Bareiss
    over Z[t, t^-1] (LaurentPoly products and exact divisions) for
    comparison:

    ======  =====  =============  ============  =============
    shape   n      Z[t, t^-1]     subset        Bareiss on Z
    ======  =====  =============  ============  =============
    small   4      0.32           0.055         0.052
    small   5      1.2            0.12          0.12
    small   6      2.3            0.23          0.19
    small   7      7.4            0.44          0.24
    small   10     52             7.1           2.4
    mid     4      14             0.21          0.35
    mid     5      52             1.2           2.5
    mid     6      124            3.1           6.4
    mid     7      447            16            13
    mid     8      947            42            39
    big     4      1821           24            44
    big     5      7292           79            279
    big     6      -              264           773
    ======  =====  =============  ============  =============

    Both packed routes beat the Laurent-ring Bareiss at every size where
    it was run (- marks one not run).  At n = 6 the subset expansion is
    1.2 times dearer on small entries and 2 to 3 times cheaper on larger
    ones; from n = 7 Bareiss on Z wins on small and mid entries, as the
    subset expansion's n*2^(n-1) products outgrow Bareiss's n^3/3 steps.
    Big entries at n >= 7 were not run.
    """
    n = len(rows)
    if n <= 1:
        return rows[0][0] if n else LaurentPoly.one()
    norms = [[sum(map(abs, f._coeffs.values())) for f in row] for row in rows]
    bound = min(math.prod(map(sum, norms)), math.prod(map(sum, zip(*norms))))
    if not bound:  # a zero row or column
        return LaurentPoly.zero()
    w, fmt = _digit(bound)
    ints, shift, m = [], 0, 1
    for row in rows:
        exps = [e for f in row for e in f._coeffs]
        lo = min(exps)
        span = max(exps) - lo + 1
        ints.append([_pack(f._coeffs, lo, span, w, fmt) for f in row])
        shift += lo
        m += span - 1
    det = _subset_det(ints) if n < len(_SUBSET_STEPS) else bareiss_det(ints, 1, operator.floordiv)
    return LaurentPoly._from_dense(_unpack(det, m, w, fmt), shift)


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
