"""Exact arithmetic substrate.

Provides the prime field of size p, the cyclotomic ring
Z[zeta_p] = Z[lam] with ``lam = zeta_p - 1`` and its lam-adic valuation,
and sparse multivariate polynomials over the ints and these two rings.  No
floating point is used anywhere.

Cyclotomic elements have int coordinates only, and every operation stays in
Z[lam]: exact division by lam is a divisibility test by p (p = -lam * S, see
`_divide_by_lambda`), and `CycloElement.inverse` inverts units only.

There is one product of polynomials over Z[lam], `SparsePoly.__mul__`: when
either factor has a CycloElement coefficient it runs on packed ints
(`_packed_sum`, Kronecker substitution in lam).  The packed path splits the
other factor into content groups gamma_k * d_k with int d_k itself
(`_content_groups`), once per polynomial; no caller sees the split.
"""

from __future__ import annotations

import math
import operator

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
    """Element of Z[lam] = Z[zeta_p] in the power basis of lam.

    ``coeffs`` has length p-1 and represents sum c_i * lam^i where lam is a
    root of sum_{i=1}^{p} binom(p, i) lam^{i-1}, i.e. lam = zeta_p - 1 for a
    primitive p-th root of unity zeta_p.  Coefficients are ints: the
    constructor raises NonIntegralInput on any coordinate whose type is not
    exactly int (a Fraction, a float or a bool included).  Sums, differences,
    negations and products have int coefficients by construction (the
    reduction rows are integral), so they skip that check through `_integral`.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise NonIntegralInput(f"cyclotomic coordinates must be ints, got {coeffs!r}")
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def _integral(cls, p: int, coeffs: tuple) -> "CycloElement":
        """An element from p-1 int coefficients, with no checks."""
        out = cls.__new__(cls)
        out.p = p
        out.coeffs = coeffs
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
        if isinstance(other, int):
            return CycloElement.from_int(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElement._integral(self.p, tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElement._integral(self.p, tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycloElement._integral(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if type(other) is int:
            return CycloElement._integral(self.p, tuple(a * other for a in self.coeffs))
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
        return CycloElement._integral(self.p, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on the ring; use inverse() on a unit")
        result = CycloElement.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CycloElement":
        """Ring inverse of a unit of Z[lam]; NotDivisible for any other element.

        c is the product of the conjugates sigma_a(self), a = 2..p-1, where
        sigma_a(lam) = (1+lam)^a - 1, so self * c is the norm N(self), an
        int.  self is a unit exactly when N(self) = +-1.  Q(zeta_p) has no
        real embedding for odd p, so N(self) is a product of squared absolute
        values and never -1: a unit has N(self) = 1, and c is its inverse.
        """
        p = self.p
        zeta = CycloElement.lam(p) + 1
        c = CycloElement.one(p)
        for a in range(2, p):
            sigma_lam = zeta**a - 1
            conjugate = CycloElement.zero(p)
            for x in reversed(self.coeffs):
                conjugate = conjugate * sigma_lam + x
            c = c * conjugate
        if self * c != 1:
            raise NotDivisible(f"{self!r} is not a unit of Z[lam]")
        return c

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
    """e / lam, or None when the quotient is not in Z[lam].

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
    cur = e
    for _ in range(v):
        cur = _divide_by_lambda(cur)
        if cur is None:
            raise NotDivisible(f"lambda^{v} does not divide {e!r}")
    return cur


def reduce_mod_lambda(e: CycloElement) -> PrimeFieldElement:
    """Image in the residue field of size p (constant coefficient mod p)."""
    return PrimeFieldElement(e.coeffs[0], e.p)


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
    back into a CycloElement: adding 2^(width-1) to every digit
    makes them all nonnegative."""
    half = 1 << (width - 1)
    offset = _pack((half,) * (p - 1), width)

    def unpack(packed: int) -> "CycloElement":
        return CycloElement._integral(p, tuple(d - half for d in _digits(packed + offset, width, p - 1)))

    return unpack


def _packed_pair(f: "SparsePoly", g: "SparsePoly"):
    """(f, g) reordered so that the first factor has a CycloElement
    coefficient, or None unless both are over Z[lam] (int and CycloElement
    coefficients only) with a CycloElement coefficient on some side."""
    kf = {type(c) for c in f.terms.values()}
    kg = {type(c) for c in g.terms.values()}
    if not kf | kg <= {int, CycloElement}:
        return None
    if CycloElement in kf:
        return f, g
    return (g, f) if CycloElement in kg else None


def _max_exponent(poly: "SparsePoly") -> int:
    return max((x for e in poly.terms for x in e), default=0)


class SparsePoly:
    """Sparse polynomial over a declared variable tuple.

    Terms map exponent tuples to nonzero coefficients.  Coefficients may be
    ints, PrimeFieldElements or CycloElements; they only need to support
    +, -, *, == and truthiness.

    No method changes `terms` of a polynomial it has returned, so the
    content split of the packed product (`_content_groups`) is computed once
    per polynomial and kept in `_groups`.
    """

    __slots__ = ("vars", "terms", "_groups")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[tuple(e)] = c
        self.terms = clean
        self._groups = None

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
        res = SparsePoly(self.vars)
        if not self.terms or not other.terms:
            return res
        pair = _packed_pair(self, other)
        if pair is not None:
            # over Z[lam]: on packed ints, unpacked exactly
            acc, shift, width, p = _packed_sum([pair])
            unpack = _cyclo_unpacker(p, shift)
            nvars = len(self.vars)
            res.terms = {tuple(_digits(key, width, nvars)): unpack(v) for key, v in acc.items() if v}
            return res
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


def _content_groups(poly: SparsePoly):
    """(largest exponent, groups) of a polynomial over Z[lam], kept on it.

    The groups split poly as sum_k gamma_k * d_k with d_k over the ints;
    each group is (rows, d_k terms, weight).  A CycloElement coefficient c
    is k * gamma with k the gcd of its coordinates, sign-normalized so that
    the first nonzero coordinate of gamma is positive: c and -c, and every
    int multiple of one primitive element, share a group.  An int
    coefficient, and a CycloElement one with gamma = 1, go to the group of
    gamma = 1, whose rows are None (the unit vectors).  Otherwise rows[j] are
    the coordinates of gamma * lam^j, j = 0..p-2.  The weight is the sum of
    the |d_k| coefficients times the largest |coordinate| in rows (1 for
    None), the factor of the digit bound in `_packed_sum`.
    """
    if poly._groups is None:
        split: dict = {}
        for e, c in poly.terms.items():
            gamma, k = None, c
            if type(c) is CycloElement:
                k = math.gcd(*c.coeffs)
                if next(x for x in c.coeffs if x) < 0:
                    k = -k
                gamma = tuple(x // k for x in c.coeffs)
                if gamma[0] == 1 and not any(gamma[1:]):
                    gamma = None
            split.setdefault(gamma, {})[e] = k
        groups = []
        for gamma, multiples in split.items():
            rows = None
            if gamma is not None:
                # gamma * lam^(j+1) from gamma * lam^j: shift up one, and
                # expand the lam^(p-1) that leaves the basis
                top_row = _reduction_rows(len(gamma) + 1)[0]
                rows = [gamma]
                while len(rows) < len(gamma):
                    cur = rows[-1]
                    rows.append(tuple(a + cur[-1] * b for a, b in zip((0,) + cur[:-1], top_row)))
            size = 1 if rows is None else max(abs(x) for row in rows for x in row)
            groups.append((rows, multiples, sum(map(abs, multiples.values())) * size))
        poly._groups = (_max_exponent(poly), tuple(groups))
    return poly._groups


def _packed_sum(products) -> tuple[dict, int, int, int]:
    """sum f * g over (f, g) pairs, on packed ints.

    f has int and CycloElement coefficients, at least one of these, and g
    int and CycloElement coefficients; g is split into content groups
    gamma_k * d_k (`_content_groups`).  Kronecker substitution in lam: a
    coordinate vector c_0..c_(n-1) packs into the single int
    sum_i c_i * 2^(B*i).  Packing is Z-linear, so gamma_k * c packs to
    sum_j c_j * pack(gamma_k * lam^j), and the packed terms of the sum are
    exact sums of int products.  Each pair contributes at most
    C * sum_k K_k * G_k to any coordinate in absolute value (C the largest
    coordinate sum |c_0| + ... + |c_(n-1)| of f, K_k the sum of the |d_k|
    coefficients, G_k the largest coordinate of any gamma_k * lam^j); B is
    chosen with 2^(B-1) above the sum of these bounds, so every coordinate
    of the sum is a signed digit that packing keeps apart, and a packed term
    is 0 exactly when all its coordinates are.  Exponent vectors are packed
    with nonnegative digits wide enough that no sum carries.

    Returns ({packed exponent: packed coordinates}, B, exponent width, p).
    """
    f0 = products[0][0]
    p = next(c.p for c in f0.terms.values() if type(c) is CycloElement)
    n = p - 1
    prepared = []
    bound = top = 0
    for f, g in products:
        coords = [(e, c.coeffs if type(c) is CycloElement else (c,)) for e, c in f.terms.items()]
        g_top, groups = _content_groups(g)
        bound += max(sum(map(abs, cs)) for _, cs in coords) * sum(w for _, _, w in groups)
        top = max(top, _max_exponent(f) + g_top)
        prepared.append((coords, groups))
    shift = bound.bit_length() + 1
    width = top.bit_length()
    units = [1 << (shift * j) for j in range(n)]
    acc: dict = {}
    get = acc.get
    for coords, groups in prepared:
        packed_f = [(_pack(e1, width), cs) for e1, cs in coords]
        for rows, multiples, _ in groups:
            if rows is not None and len(rows) != n:
                raise ValueError("mixed cyclotomic rings")
            packed_rows = units if rows is None else [_pack(row, shift) for row in rows]
            others = [(_pack(e2, width), k) for e2, k in multiples.items()]
            for key1, cs in packed_f:
                packed = sum(map(operator.mul, cs, packed_rows))
                for key2, k in others:
                    key = key1 + key2
                    acc[key] = get(key, 0) + k * packed
    return acc, shift, width, p


def products_vanish(products) -> bool:
    """Is sum f * g zero, over the (f, g) pairs?

    Over Z[lam] the sum runs on packed ints (`_packed_sum`) and is never
    unpacked: a packed term is zero exactly when all its coordinates are.
    Otherwise (over F_p, say) it is the plain sum of the products.
    """
    products = [(f, g) for f, g in products if f and g]
    pairs = [_packed_pair(f, g) for f, g in products]
    if products and None not in pairs:
        acc, _, _, _ = _packed_sum(pairs)
        return not any(acc.values())
    total = None
    for f, g in products:
        total = f * g if total is None else total + f * g
    return not total


def _is_one_poly(poly: SparsePoly) -> bool:
    if len(poly.terms) != 1:
        return False
    (e, c), = poly.terms.items()
    return not any(e) and c == 1
