"""Exact arithmetic substrate.

Provides arbitrary-precision rationals (stdlib ``Fraction``), the prime field
of size p, the cyclotomic ring generated by ``lam = zeta_p - 1`` with its
lam-adic valuation, sparse multivariate polynomials over any of these
coefficient rings, and localization of polynomials at a fixed monic
denominator.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
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
_LAMBDA_INVERSE: dict[int, "CycloElement"] = {}


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
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(_as_exact(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElement(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElement(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycloElement(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.p - 1
        conv = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    conv[i + j] += a * b
        if n > 1:
            rows = _reduction_rows(self.p)
            out = conv[:n]
            for k in range(n, 2 * n - 1):
                c = conv[k]
                if c:
                    row = rows[k - n]
                    for idx in range(n):
                        if row[idx]:
                            out[idx] += c * row[idx]
        else:
            out = conv[:1]
        return CycloElement(self.p, tuple(out))

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
        return all(isinstance(c, int) for c in self.coeffs)

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


def _lambda_inverse(p: int) -> CycloElement:
    inv = _LAMBDA_INVERSE.get(p)
    if inv is None:
        inv = CycloElement.lam(p).inverse()
        _LAMBDA_INVERSE[p] = inv
    return inv


def lambda_valuation(e: CycloElement):
    """Largest v with e = lam^v * e' and e' integral; math.inf for e = 0."""
    if not e.is_integral():
        raise NonIntegralInput("lambda_valuation requires integer coefficients")
    if not e:
        return math.inf
    inv = _lambda_inverse(e.p)
    v = 0
    cur = e
    while True:
        nxt = cur * inv
        if not nxt.is_integral():
            return v
        v += 1
        cur = nxt


def divide_by_lambda_power(e: CycloElement, v: int) -> CycloElement:
    """Exact quotient e / lam^v; raises NotDivisible if the quotient is not integral."""
    if v < 0:
        raise ValueError("v must be nonnegative")
    if not e:
        return e
    cur = e
    inv = _lambda_inverse(e.p)
    for _ in range(v):
        cur = cur * inv
    if not cur.is_integral():
        raise NotDivisible(f"lambda^{v} does not divide {e!r}")
    return cur


def reduce_mod_lambda(e: CycloElement) -> PrimeFieldElement:
    """Image in the residue field of size p (constant coefficient mod p)."""
    if not e.is_integral():
        raise NonIntegralInput("reduction requires integer coefficients")
    return PrimeFieldElement(int(e.coeffs[0]), e.p)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials


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
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = SparsePoly(self.vars)
        res.terms = out
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
        quo = SparsePoly(self.vars)
        rem = self
        while rem and rem.degree_in(name) >= d:
            k = rem.degree_in(name)
            top = rem.coefficient_of(name, k).mul_var_power(name, k - d)
            quo = quo + top
            rem = rem - top * divisor
        return quo, rem

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
        a = self.num if s == m else self.num * self.loc.denominator ** (m - s)
        b = other.num if t == m else other.num * self.loc.denominator ** (m - t)
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

    def scale_poly(self, poly: SparsePoly) -> "LocalizedElement":
        return LocalizedElement(self.loc, self.num * poly, self.power)

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
        a = self.num * self.loc.denominator ** (m - s) if m > s else self.num
        b = other.num * self.loc.denominator ** (m - t) if m > t else other.num
        return a == b

    def __hash__(self):
        return hash((self.num, self.power))

    def __repr__(self):
        if self.power == 0:
            return repr(self.num)
        return f"({self.num!r}) / d^{self.power}"
