"""Exact arithmetic substrate.

Provides arbitrary-precision rationals (stdlib ``Fraction``), the prime field
of size p, the cyclotomic ring generated by ``lam = zeta_p - 1`` with its
lam-adic valuation, sparse multivariate polynomials over any of these
coefficient rings, and localization of polynomials at a fixed monic
denominator.  No floating point is used anywhere.

Cyclotomic arithmetic stays in Z[lam] with int coordinates: exact division
by lam is a divisibility test by p (p = -lam * S, see `_divide_by_lambda`),
and only the field inverse `CycloElement.inverse` produces Fractions.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import NonIntegralInput, NonPrimeP, NotDivisible


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41.

    Exact for n < 3.3 * 10^24: the least strong pseudoprime to all thirteen
    bases is 3317044064679887385961981 (to 2..37 alone it is
    318665857834031151167461).  Above that bound a composite passes with
    probability below 4^-13.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _as_exact(value):
    # keep integral values on the fast int path
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class PrimeFieldElement:
    """An element of the field with p elements."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("mixed prime-field moduli")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(other.value - self.value, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return PrimeFieldElement(pow(self.value, n, self.p), self.p)

    def inverse(self) -> "PrimeFieldElement":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return PrimeFieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("Fp", self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


# ---------------------------------------------------------------------------
# Cyclotomic ring


_REDUCTION_ROWS: dict[int, list[tuple[int, ...]]] = {}


def _reduction_rows(p: int) -> list[tuple[int, ...]]:
    """Expansions of lam^k, k = p-1 .. 2p-4, in the power basis 1..lam^{p-2}.

    The defining relation is sum_{i=1}^{p} binom(p, i) lam^{i-1} = 0, which is
    monic in lam^{p-1}.
    """
    rows = _REDUCTION_ROWS.get(p)
    if rows is not None:
        return rows
    n = p - 1
    base = [-math.comb(p, i) for i in range(1, p)]  # lam^{p-1}
    rows = [tuple(base)]
    cur = base
    for _ in range(p - 1, 2 * p - 4):
        nxt = [0] + cur[: n - 1]
        top = cur[n - 1]
        if top:
            nxt = [nxt[i] + top * base[i] for i in range(n)]
        rows.append(tuple(nxt))
        cur = nxt
    _REDUCTION_ROWS[p] = rows
    return rows


class CycloElement:
    """Element of the p-th cyclotomic field in the power basis of lam.

    ``coeffs`` has length p-1 and represents sum c_i * lam^i where lam is a
    root of sum_{i=1}^{p} binom(p, i) lam^{i-1}, i.e. lam = zeta_p - 1 for a
    primitive p-th root of unity zeta_p.  Coefficients are exact ints or
    Fractions.

    ``integral`` records, once per element, whether every coefficient is an
    int.  The public constructor computes it after normalizing a Fraction
    with denominator 1 to an int.  Sums, differences, negations and products
    of two integral elements have int coefficients by construction (the
    reduction rows are integral), so they skip that check through `_integral`;
    any Fraction operand, which only `inverse()` and callers building
    elements by hand produce, takes the checking path.
    """

    __slots__ = ("p", "coeffs", "integral")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(coeffs)
        integral = all(type(c) is int for c in coeffs)
        if not integral:
            coeffs = tuple(_as_exact(c) for c in coeffs)
            integral = all(isinstance(c, int) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs
        self.integral = integral

    @classmethod
    def _integral(cls, p: int, coeffs: tuple) -> "CycloElement":
        """An element from p-1 int coefficients, with no checks."""
        out = cls.__new__(cls)
        out.p = p
        out.coeffs = coeffs
        out.integral = True
        return out

    @classmethod
    def zero(cls, p: int) -> "CycloElement":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycloElement":
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, n) -> "CycloElement":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def lam(cls, p: int) -> "CycloElement":
        return cls(p, (0, 1) + (0,) * (p - 3))

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic rings")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElement.from_int(self.p, other)
        return None

    def _result(self, other, coeffs: tuple) -> "CycloElement":
        if self.integral and other.integral:
            return CycloElement._integral(self.p, coeffs)
        return CycloElement(self.p, coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._result(other, tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._result(other, tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        if self.integral:
            return CycloElement._integral(self.p, tuple(-a for a in self.coeffs))
        return CycloElement(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = self.p - 1
        conv = [0] * (2 * n - 1)
        nonzero_b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero_b:
                    conv[i + j] += x * y
        rows = _reduction_rows(self.p)
        out = conv[:n]
        for k in range(n, 2 * n - 1):
            c = conv[k]
            if c:
                out = [o + c * r for o, r in zip(out, rows[k - n])]
        return self._result(other, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on the ring; use inverse()")
        result = CycloElement.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CycloElement":
        """Field inverse via the extended Euclidean algorithm mod the minimal polynomial."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        p = self.p
        n = p - 1
        # minimal polynomial, degree n, dense low-to-high
        modulus = [Fraction(math.comb(p, i)) for i in range(1, p + 1)]
        a = [Fraction(c) for c in self.coeffs]
        inv = _poly_inverse_mod(a, modulus)
        return CycloElement(p, tuple(inv + [Fraction(0)] * (n - len(inv))))

    def is_integral(self) -> bool:
        return self.integral

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("cyclo", self.p, self.coeffs))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*lam")
            else:
                parts.append(f"{c}*lam^{i}")
        return " + ".join(parts) if parts else "0"


def _poly_divmod(num, den):
    """Dense divmod over Fraction lists (low-to-high), den nonzero."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dd = len(den) - 1
    while len(den) > 1 and not den[-1]:
        den = den[:-1]
        dd -= 1
    quo = [Fraction(0)] * max(0, len(num) - dd)
    lead = den[-1]
    while len(num) - 1 >= dd and num:
        k = len(num) - 1 - dd
        f = num[-1] / lead
        quo[k] = f
        for i, c in enumerate(den):
            num[k + i] -= f * c
        while num and not num[-1]:
            num.pop()
    return quo, num


def _poly_inverse_mod(a, modulus):
    """Inverse of polynomial a modulo `modulus` over Fractions (extended Euclid)."""
    r0, r1 = list(modulus), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _poly_divmod(r0, r1)
        # s_next = s0 - q * s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1 if q and s1 else 0)
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
        s_next = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            s_next[i] += c
        for i, c in enumerate(prod):
            s_next[i] -= c
        r0, r1 = r1, r
        s0, s1 = s1, s_next
    # r0 is the gcd; it must be a nonzero constant since the modulus is irreducible
    while r0 and not r0[-1]:
        r0.pop()
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    c = r0[0]
    return [x / c for x in s0]


def ring_one_like(sample):
    """Multiplicative identity of the coefficient ring a sample value lives in."""
    if isinstance(sample, CycloElement):
        return CycloElement.one(sample.p)
    if isinstance(sample, PrimeFieldElement):
        return PrimeFieldElement(1, sample.p)
    return 1


def cyclotomic_min_poly(p: int) -> "SparsePoly":
    """Minimal polynomial of lam = zeta_p - 1: sum_{i=1}^{p} binom(p, i) lam^{i-1}.

    Monic of degree p-1 with integer coefficients.
    """
    if not is_prime(p):
        raise NonPrimeP(f"p = {p} is not prime")
    terms = {(i - 1,): math.comb(p, i) for i in range(1, p + 1)}
    return SparsePoly(("lam",), terms)


def _divide_by_lambda(e: CycloElement) -> CycloElement | None:
    """e / lam for integral e, or None when the quotient is not integral.

    The minimal polynomial gives p = -lam * S with
    S = sum_{i=2}^{p} binom(p, i) lam^(i-2), so e / lam = -(e * S) / p:
    the quotient is integral exactly when p divides every coordinate of
    e * S (Washington, Introduction to Cyclotomic Fields, ch. 1).
    """
    p = e.p
    es = e * CycloElement._integral(p, tuple(math.comb(p, i) for i in range(2, p + 1)))
    if any(c % p for c in es.coeffs):
        return None
    return CycloElement._integral(p, tuple(-(c // p) for c in es.coeffs))


def lambda_valuation(e: CycloElement):
    """Largest v with e = lam^v * e' and e' integral; math.inf for e = 0."""
    if not e.is_integral():
        raise NonIntegralInput("lambda_valuation requires integer coefficients")
    if not e:
        return math.inf
    v = 0
    while (e := _divide_by_lambda(e)) is not None:
        v += 1
    return v


def divide_by_lambda_power(e: CycloElement, v: int) -> CycloElement:
    """Exact quotient e / lam^v; raises NotDivisible if the quotient is not integral."""
    if v < 0:
        raise ValueError("v must be nonnegative")
    if not e:
        return e
    # e / lam^v lies in Z[lam] only if e does, since lam^v is integral
    cur = e if e.is_integral() else None
    for _ in range(v):
        if cur is None:
            break
        cur = _divide_by_lambda(cur)
    if cur is None:
        raise NotDivisible(f"lambda^{v} does not divide {e!r}")
    return cur


def split_content(poly: "SparsePoly"):
    """(gamma, d) with poly = gamma * d, d over the ints; (None, poly) otherwise.

    gamma is the first coefficient divided by the gcd of its coordinates.
    Its coordinates are then coprime, so an integral coefficient that is a
    rational multiple of gamma is an integer multiple of it: the split is
    found whenever every coefficient is an integer multiple of one
    cyclotomic element, and each multiple is checked coordinate by
    coordinate.
    """
    values = list(poly.terms.values())
    if not values or not all(isinstance(c, CycloElement) and c.integral for c in values):
        return None, poly
    first = values[0].coeffs
    g = math.gcd(*first)
    gamma = tuple(x // g for x in first)
    pivot = next(i for i, x in enumerate(gamma) if x)
    multiples = {}
    for e, c in poly.terms.items():
        k = c.coeffs[pivot] // gamma[pivot]
        if any(a != k * b for a, b in zip(c.coeffs, gamma)):
            return None, poly
        multiples[e] = k
    return CycloElement._integral(values[0].p, gamma), SparsePoly(poly.vars, multiples)


def reduce_mod_lambda(e: CycloElement) -> PrimeFieldElement:
    """Image in the residue field of size p (constant coefficient mod p)."""
    if not e.is_integral():
        raise NonIntegralInput("reduction requires integer coefficients")
    return PrimeFieldElement(int(e.coeffs[0]), e.p)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials


def _pack(digits, width: int) -> int:
    """sum_i digits[i] * 2^(width*i).  The map is Z-linear and injective on
    digit vectors with every entry in [0, 2^width), and on those with every
    entry below 2^(width-1) in absolute value."""
    packed = 0
    for d in reversed(digits):
        packed = (packed << width) + d
    return packed


def _digits(packed: int, width: int, n: int) -> list[int]:
    """The n digits of a packed vector whose digits lie in [0, 2^width)."""
    mask = (1 << width) - 1
    return [(packed >> (width * i)) & mask for i in range(n)]


def _cyclo_unpacker(p: int, width: int):
    """Reads packed coordinates, each below 2^(width-1) in absolute value,
    back into an integral CycloElement: adding 2^(width-1) to every digit
    makes them all nonnegative."""
    half = 1 << (width - 1)
    offset = _pack((half,) * (p - 1), width)

    def unpack(packed: int) -> "CycloElement":
        return CycloElement._integral(p, tuple(d - half for d in _digits(packed + offset, width, p - 1)))

    return unpack


def _all_ints(poly: "SparsePoly") -> bool:
    return all(type(c) is int for c in poly.terms.values())


def _all_integral_cyclo(poly: "SparsePoly") -> bool:
    return all(type(c) is CycloElement and c.integral for c in poly.terms.values())


def _max_exponent(poly: "SparsePoly") -> int:
    return max((x for e in poly.terms for x in e), default=0)


class SparsePoly:
    """Sparse polynomial over a declared variable tuple.

    Terms map exponent tuples to nonzero coefficients.  Coefficients may be
    ints, Fractions, PrimeFieldElements or CycloElements; they only need to
    support +, -, *, == and truthiness.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "SparsePoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables, c) -> "SparsePoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name, exp: int = 1, c=1) -> "SparsePoly":
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = exp
        return cls(variables, {tuple(e): c})

    @classmethod
    def monomial(cls, variables, exps, c) -> "SparsePoly":
        return cls(variables, {tuple(exps): c})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        res = SparsePoly(self.vars)
        res.terms = out
        return res

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        res = SparsePoly(self.vars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        # integral CycloElement times int coefficients: the packed product
        if _all_ints(other) and _all_integral_cyclo(self):
            return self.mul_ints(other)
        if _all_ints(self) and _all_integral_cyclo(other):
            return other.mul_ints(self)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                e = tuple(map(operator.add, e1, e2))
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = SparsePoly(self.vars)
        res.terms = out
        return res

    def mul_ints(self, ints: "SparsePoly", gamma: "CycloElement | None" = None) -> "SparsePoly":
        """self * ints, times gamma when given: CycloElement coefficients
        times int coefficients, gamma an integral CycloElement.

        The product is computed on packed ints (`_packed_sum`) and unpacked
        exactly; a Fraction coordinate takes the plain product.
        """
        self._check(ints)
        res = SparsePoly(self.vars)
        if not self.terms or not ints.terms:
            return res
        if not _all_integral_cyclo(self):
            return (self if gamma is None else self.scale(gamma)) * ints
        acc, shift, width, p = _packed_sum([(self, ints, gamma)])
        unpack = _cyclo_unpacker(p, shift)
        nvars = len(self.vars)
        res.terms = {tuple(_digits(key, width, nvars)): unpack(v) for key, v in acc.items() if v}
        return res

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            # the ring one is inferred from a sample coefficient
            if not self.terms:
                raise ValueError("cannot raise the zero polynomial to the power 0")
            sample = next(iter(self.terms.values()))
            return SparsePoly.constant(self.vars, ring_one_like(sample))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c) -> "SparsePoly":
        if not c:
            return SparsePoly(self.vars)
        res = SparsePoly(self.vars)
        res.terms = {e: v for e, v in ((e, c * v) for e, v in self.terms.items()) if v}
        return res

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def strata(self, name: str) -> dict:
        """Split by the exponent of one variable: exp -> poly with that variable removed from use."""
        i = self.vars.index(name)
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[i]
            reste = e[:i] + (0,) + e[i + 1 :]
            out.setdefault(k, {})[reste] = c
        result = {}
        for k, terms in out.items():
            poly = SparsePoly(self.vars)
            poly.terms = terms
            result[k] = poly
        return result

    def coefficient_of(self, name: str, exp: int) -> "SparsePoly":
        i = self.vars.index(name)
        poly = SparsePoly(self.vars)
        poly.terms = {
            e[:i] + (0,) + e[i + 1 :]: c for e, c in self.terms.items() if e[i] == exp
        }
        return poly

    def mul_var_power(self, name: str, exp: int) -> "SparsePoly":
        if exp == 0:
            return self
        i = self.vars.index(name)
        poly = SparsePoly(self.vars)
        poly.terms = {e[:i] + (e[i] + exp,) + e[i + 1 :]: c for e, c in self.terms.items()}
        return poly

    def divmod_monic(self, divisor: "SparsePoly", name: str):
        """Long division by a divisor that is monic in `name`.

        Returns (quotient, remainder) with self = quotient * divisor + remainder
        and remainder of strictly smaller degree in `name`.
        """
        self._check(divisor)
        d = divisor.degree_in(name)
        lead = divisor.coefficient_of(name, d)
        if not _is_one_poly(lead):
            raise ValueError(f"divisor is not monic in {name}")
        if self.terms and _all_ints(divisor) and _all_integral_cyclo(self):
            return self._packed_divmod(divisor, name, d)
        quo = SparsePoly(self.vars)
        rem = self
        while rem and rem.degree_in(name) >= d:
            k = rem.degree_in(name)
            top = rem.coefficient_of(name, k).mul_var_power(name, k - d)
            quo = quo + top
            rem = rem - top * divisor
        return quo, rem

    def _packed_divmod(self, divisor: "SparsePoly", name: str, d: int):
        """`divmod_monic` of integral CycloElement coefficients by an int
        divisor, on packed coordinates (see `_packed_sum`).

        Long division is Z-linear in the coordinates with int multipliers.
        It runs stratum by stratum in `name`, from the top degree down to d:
        each step subtracts top * c_j from lower strata, where the c_j are the
        divisor's lower strata.  A coordinate then grows by at most m * S_j,
        m the largest coordinate so far and S_j the sum of the |c_j|
        coefficients, and each stratum receives from one c_j per step.  So
        after t steps every coordinate of the remainder and of the quotient is
        at most M * (1 + S)^t, M the largest coordinate of self and S the sum
        of the |coefficients| of the divisor below its leading term; the
        digit width holds that bound for t = number of steps.
        """
        i = self.vars.index(name)

        def split(e):
            return e[i], e[:i] + (0,) + e[i + 1 :]

        lower: dict[int, list] = {}
        for e, c in divisor.terms.items():
            k, rest = split(e)
            if k < d:
                lower.setdefault(k, []).append((rest, c))
        values = self.terms.values()
        p = next(iter(values)).p
        top_degree = self.degree_in(name)
        steps = max(top_degree - d + 1, 0)
        growth = 1 + sum(abs(c) for cs in lower.values() for _, c in cs)
        bound = max(abs(x) for c in values for x in c.coeffs) * growth**steps
        shift = bound.bit_length() + 1
        rem: dict[int, dict] = {}
        for e, c in self.terms.items():
            k, rest = split(e)
            rem.setdefault(k, {})[rest] = _pack(c.coeffs, shift)
        quo: dict[int, dict] = {}
        for k in range(top_degree, d - 1, -1):
            top = {rest: v for rest, v in rem.pop(k, {}).items() if v}
            if not top:
                continue
            quo[k - d] = top
            for j, cs in lower.items():
                target = rem.setdefault(k - d + j, {})
                get = target.get
                for rest_t, v in top.items():
                    for rest_c, c in cs:
                        e = tuple(map(operator.add, rest_t, rest_c))
                        target[e] = get(e, 0) - c * v
        unpack = _cyclo_unpacker(p, shift)

        def from_strata(strata):
            poly = SparsePoly(self.vars)
            poly.terms = {
                rest[:i] + (k,) + rest[i + 1 :]: unpack(v)
                for k, part in strata.items()
                for rest, v in part.items()
                if v
            }
            return poly

        return from_strata(quo), from_strata(rem)

    def map_coefficients(self, fn) -> "SparsePoly":
        res = SparsePoly(self.vars)
        res.terms = {e: v for e, v in ((e, fn(c)) for e, c in self.terms.items()) if v}
        return res

    def drop_vars(self, names) -> "SparsePoly":
        """Remove variables that appear with exponent 0 in every term."""
        names = set(names)
        keep = [i for i, v in enumerate(self.vars) if v not in names]
        for e in self.terms:
            for i, v in enumerate(self.vars):
                if v in names and e[i]:
                    raise ValueError(f"variable {v} occurs with positive exponent")
        poly = SparsePoly(tuple(self.vars[i] for i in keep))
        poly.terms = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return poly

    def embed(self, variables) -> "SparsePoly":
        """View the polynomial inside a larger variable tuple."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.vars]
        n = len(variables)
        poly = SparsePoly(variables)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for i, k in zip(pos, e):
                ne[i] = k
            out[tuple(ne)] = c
        poly.terms = out
        return poly

    def specialize(self, values: dict) -> "SparsePoly":
        """Substitute scalars for some variables; the result forgets them."""
        todrop = [i for i, v in enumerate(self.vars) if v in values]
        keep = [i for i in range(len(self.vars)) if i not in todrop]
        poly = SparsePoly(tuple(self.vars[i] for i in keep))
        out: dict = {}
        for e, c in self.terms.items():
            for i in todrop:
                k = e[i]
                if k:
                    val = values[self.vars[i]]
                    for _ in range(k):
                        c = c * val
            if not c:
                continue
            ne = tuple(e[i] for i in keep)
            s = out.get(ne)
            s = c if s is None else s + c
            if s:
                out[ne] = s
            elif ne in out:
                del out[ne]
        poly.terms = out
        return poly

    def constant_value(self):
        """Coefficient of the empty exponent; 0 for anything missing."""
        return self.terms.get((0,) * len(self.vars), 0)

    def sorted_terms(self):
        """Graded-lex descending over the declared variable order; deterministic."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            bits.append(f"({c!r})*{mono}" if mono else f"({c!r})")
        return " + ".join(bits)


def _packed_sum(products) -> tuple[dict, int, int, int]:
    """sum gamma * f * d over (f, d, gamma), on packed ints.

    f has integral CycloElement coefficients, d int coefficients, and gamma
    is an integral CycloElement or None (read as 1).  Kronecker substitution
    in lam: a coordinate vector c_0..c_(n-1) packs into the single int
    sum_i c_i * 2^(B*i).  Packing is Z-linear, so gamma * c packs to
    sum_j c_j * pack(gamma * lam^j), and the packed terms of the sum are
    exact sums of int products.  Each product contributes at most K * C * G
    to any coordinate in absolute value (K the sum of the |d| coefficients,
    C the largest coordinate sum |c_0| + ... + |c_(n-1)| of f, G the largest
    coordinate of any gamma * lam^j); B is chosen with 2^(B-1) above the sum
    of these bounds, so every coordinate of the sum is a signed digit that
    packing keeps apart, and a packed term is 0 exactly when all its
    coordinates are.  Exponent vectors are packed with nonnegative digits
    wide enough that no sum carries.

    Returns ({packed exponent: packed coordinates}, B, exponent width, p).
    """
    p = next(iter(products[0][0].terms.values())).p
    n = p - 1
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    prepared = []
    bound = top = 0
    for f, d, gamma in products:
        images = unit if gamma is None else [(gamma * CycloElement._integral(p, u)).coeffs for u in unit]
        bound += (
            sum(map(abs, d.terms.values()))
            * max(sum(map(abs, c.coeffs)) for c in f.terms.values())
            * max(abs(x) for row in images for x in row)
        )
        top = max(top, _max_exponent(f) + _max_exponent(d))
        prepared.append((f, d, images))
    shift = bound.bit_length() + 1
    width = top.bit_length()
    acc: dict = {}
    get = acc.get
    for f, d, images in prepared:
        packed_images = [_pack(row, shift) for row in images]
        others = [(_pack(e2, width), k) for e2, k in d.terms.items()]
        for e1, c1 in f.terms.items():
            key1 = _pack(e1, width)
            packed = sum(map(operator.mul, c1.coeffs, packed_images))
            for key2, k in others:
                key = key1 + key2
                acc[key] = get(key, 0) + k * packed
    return acc, shift, width, p


def products_vanish(products) -> bool:
    """Is sum gamma * f * d zero, over (f, d, gamma) as in `_packed_sum`?

    The sum is never unpacked: a packed term is zero exactly when all its
    coordinates are.  Terms with a Fraction coordinate take the plain sum.
    """
    products = [(f, d, gamma) for f, d, gamma in products if f and d]
    if not products:
        return True
    if not all(_all_integral_cyclo(f) for f, _, _ in products):
        total = SparsePoly.zero(products[0][0].vars)
        for f, d, gamma in products:
            total = total + (f if gamma is None else f.scale(gamma)) * d
        return not total
    acc, _, _, _ = _packed_sum(products)
    return not any(acc.values())


def _is_one_poly(poly: SparsePoly) -> bool:
    if len(poly.terms) != 1:
        return False
    (e, c), = poly.terms.items()
    return not any(e) and c == 1


# ---------------------------------------------------------------------------
# Localization at a fixed monic polynomial


class Localization:
    """Fractions u / d^k where d is one fixed polynomial, monic in `var`."""

    def __init__(self, denominator: SparsePoly, var: str):
        d = denominator.degree_in(var)
        if d < 1:
            raise ValueError("denominator must have positive degree in the division variable")
        if not _is_one_poly(denominator.coefficient_of(var, d)):
            raise ValueError("denominator must be monic in the division variable")
        self.denominator = denominator
        self.var = var
        self.vars = denominator.vars
        one = ring_one_like(next(iter(denominator.terms.values())))
        self._powers = [SparsePoly.constant(self.vars, one), denominator]

    def power(self, k: int) -> SparsePoly:
        """denominator^k, kept for every k asked so far."""
        powers = self._powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.denominator)
        return powers[k]

    def element(self, num: SparsePoly, power: int = 0) -> "LocalizedElement":
        return LocalizedElement(self, num, power)

    def zero(self) -> "LocalizedElement":
        return LocalizedElement(self, SparsePoly(self.vars), 0)

    def __eq__(self, other):
        return (
            isinstance(other, Localization)
            and self.var == other.var
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.var, self.denominator))


class LocalizedElement:
    """u / d^power in reduced form: d does not divide u whenever power > 0."""

    __slots__ = ("loc", "num", "power")

    def __init__(self, loc: Localization, num: SparsePoly, power: int = 0):
        if power < 0:
            raise ValueError("denominator power must be nonnegative")
        while power > 0 and num:
            quo, rem = num.divmod_monic(loc.denominator, loc.var)
            if rem:
                break
            num = quo
            power -= 1
        if not num:
            power = 0
        self.loc = loc
        self.num = num
        self.power = power

    def _check(self, other: "LocalizedElement"):
        if self.loc != other.loc:
            raise ValueError("localized elements over different denominators")

    def __add__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        self._check(other)
        s, t = self.power, other.power
        m = max(s, t)
        a = self.num if s == m else self.num * self.loc.power(m - s)
        b = other.num if t == m else other.num * self.loc.power(m - t)
        return LocalizedElement(self.loc, a + b, m)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = LocalizedElement.__new__(LocalizedElement)
        out.loc, out.num, out.power = self.loc, -self.num, self.power
        return out

    def __mul__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        self._check(other)
        return LocalizedElement(self.loc, self.num * other.num, self.power + other.power)

    def scale(self, c) -> "LocalizedElement":
        out = LocalizedElement.__new__(LocalizedElement)
        out.loc, out.num, out.power = self.loc, self.num.scale(c), self.power
        if not out.num:
            out.power = 0
        return out

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        self._check(other)
        # reduced forms are unique, but cross-multiplication is the definition
        if self.power == other.power:
            return self.num == other.num
        s, t = self.power, other.power
        m = max(s, t)
        a = self.num * self.loc.power(m - s) if m > s else self.num
        b = other.num * self.loc.power(m - t) if m > t else other.num
        return a == b

    def __hash__(self):
        return hash((self.num, self.power))

    def __repr__(self):
        if self.power == 0:
            return repr(self.num)
        return f"({self.num!r}) / d^{self.power}"
