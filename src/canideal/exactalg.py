"""Exact arithmetic substrate: the one module that knows how Z[lam]
multiplies and how it maps to a finite field.  No floating point is used.

Provides the cyclotomic ring Z[zeta_p] = Z[lam] with ``lam = zeta_p - 1``,
exact division by powers of lam (`divide_by_lambda_power`), the one quotient
map `residue` (onto F_r, sending lam to a given residue; the residue field
F_p = Z[lam]/(lam) is r = p, lam = 0), and sparse multivariate polynomials
over the ints and Z[lam].  Cyclotomic elements have int coordinates only,
and their product multiplies through the one lam-shift rule `_lam_rows`.
Exact division by lam is a divisibility test by p (p = -lam * S, see
`_divide_by_lambda`); `CycloElement.inverse` inverts units only.

There is one product of polynomials, `SparsePoly.__mul__`, a schoolbook
loop over the terms: over Z[lam] each coefficient product is element
arithmetic, with its int fast path.  A slot coefficient of the trinomial
tables is a tuple of groups (gamma, d), standing for sum_k gamma_k * d_k:
`multiply_out` forms that polynomial and `residue_terms` its image in F_r,
each weight gamma_k mapped once.
"""

from __future__ import annotations

import math
import operator

from .errors import NonIntegralInput, NotDivisible


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
    """An element of the field with p elements.  The package reads F_p as
    the ints mod p and builds none."""

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


def _lam_rows(coeffs: tuple, count: int) -> list[tuple[int, ...]]:
    """The coordinates of c * lam^j for j = 0 and every j < count, c given by
    `coeffs`: the one lam-shift rule.  Each row is the previous one shifted
    up a place, with the lam^(p-1) that leaves the basis expanded by the
    minimal polynomial, lam^(p-1) = -sum_{i=1}^{p-1} binom(p, i) lam^(i-1).
    """
    n = len(coeffs)
    binoms = tuple(map(math.comb, [n + 1] * n, range(1, n + 1)))
    rows = [coeffs]
    for _ in range(count - 1):
        cur = rows[-1]
        shifted = (0,) + cur[:-1]
        rows.append(tuple(map(operator.sub, shifted, map(cur[-1].__mul__, binoms))) if cur[-1] else shifted)
    return rows


class CycloElement:
    """Element of Z[lam] = Z[zeta_p] in the power basis of lam.

    ``coeffs`` has length p-1 and represents sum c_i * lam^i where lam is a
    root of sum_{i=1}^{p} binom(p, i) lam^{i-1}, i.e. lam = zeta_p - 1 for a
    primitive p-th root of unity zeta_p.  Coefficients are ints: the
    constructor raises NonIntegralInput on any coordinate whose type is not
    exactly int (a Fraction, a float or a bool included).  Sums, differences,
    negations and products have int coefficients by construction (the
    rows of `_lam_rows` are integral), so they skip that check through
    `_integral`.
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

    @classmethod
    def lam_powers(cls, p: int, count: int) -> list["CycloElement"]:
        """lam^0, ..., lam^(count-1): the rows of one `_lam_rows` call, no product taken."""
        return [cls._integral(p, row) for row in _lam_rows((1,) + (0,) * (p - 2), count)]

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
        # self * other = sum_j a_j * (other * lam^j), j up to the last nonzero a_j
        a = self.coeffs
        rows = _lam_rows(other.coeffs, max((j + 1 for j, x in enumerate(a) if x), default=0))
        return CycloElement._integral(self.p, tuple(sum(map(operator.mul, a, c)) for c in zip(*rows)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on the ring; use inverse() on a unit")
        # square-and-multiply with no product by 1 and no square after the last bit
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return CycloElement.one(self.p) if result is None else result

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
        # elements of two cyclotomic rings are unequal, not an error: the
        # integral ones hash alike, so one set or dict may hold both
        if isinstance(other, CycloElement) and other.p != self.p:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # an element of Z equals its int, so it hashes as that int
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
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


def residue(value, r: int, lam: int) -> int:
    """phi(value) in F_r, read as the ints in [0, r), for the ring map
    phi: Z[lam] -> F_r sending lam to `lam`; F_p = Z[lam]/(lam) is the case
    r = p, lam = 0.  Takes an int, the image of Z in Z[lam], or a
    CycloElement, whose int coordinates are read by Horner's rule in lam;
    at lam = 0 that is the lam^0 coordinate mod r, read directly.
    """
    if isinstance(value, int):
        return value % r
    if isinstance(value, CycloElement):
        if lam == 0:
            return value.coeffs[0] % r
        acc = 0
        for c in reversed(value.coeffs):
            acc = (acc * lam + c) % r
        return acc
    raise TypeError(f"no image in F_{r} for a {type(value).__name__}")


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials


class SparsePoly:
    """Sparse polynomial over a declared variable tuple.

    Terms map exponent tuples to nonzero coefficients, ints or
    CycloElements.  Ints may be mixed with the elements of Z[lam], in one
    polynomial or across the factors of a product: an int is the image of Z
    in Z[lam], the only ring map from Z, and every mixed operation
    dispatches to the ring (`CycloElement._coerce`).

    No method changes `terms` of a polynomial it has returned, so the hash
    is computed once per polynomial and kept in `_hash`.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[tuple(e)] = c
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _held(cls, variables, terms: dict) -> "SparsePoly":
        """The polynomial of `terms`, every coefficient nonzero, held as given."""
        poly = object.__new__(cls)
        poly.vars, poly.terms, poly._hash = tuple(variables), terms, None
        return poly

    @classmethod
    def zero(cls, variables) -> "SparsePoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables, c) -> "SparsePoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

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
        return SparsePoly._held(self.vars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SparsePoly._held(self.vars, {e: -c for e, c in self.terms.items()})

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
                e = tuple(map(operator.add, e1, e2))
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return SparsePoly._held(self.vars, out)

    def scale(self, c) -> "SparsePoly":
        if not c:
            return SparsePoly(self.vars)
        return SparsePoly._held(self.vars, {e: v for e, v in ((e, c * v) for e, v in self.terms.items()) if v})

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def coefficient_of(self, name: str, exp: int) -> "SparsePoly":
        i = self.vars.index(name)
        return SparsePoly._held(self.vars, {e[:i] + (0,) + e[i + 1 :]: c for e, c in self.terms.items() if e[i] == exp})

    def mul_var_power(self, name: str, exp: int) -> "SparsePoly":
        if exp == 0:
            return self
        i = self.vars.index(name)
        return SparsePoly._held(self.vars, {e[:i] + (e[i] + exp,) + e[i + 1 :]: c for e, c in self.terms.items()})

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
        return SparsePoly._held(self.vars, {e: v for e, v in ((e, fn(c)) for e, c in self.terms.items()) if v})

    def specialize(self, values: dict) -> "SparsePoly":
        """Substitute scalars for some variables; the result forgets them.
        The substituted powers of a term are multiplied first, so each
        coefficient meets one int."""
        todrop = [i for i, v in enumerate(self.vars) if v in values]
        keep = [i for i in range(len(self.vars)) if i not in todrop]
        out: dict = {}
        for e, c in self.terms.items():
            scale = 1
            for i in todrop:
                if e[i]:
                    scale = scale * values[self.vars[i]] ** e[i]
            ne = tuple(e[i] for i in keep)
            cur = out.get(ne)
            out[ne] = c * scale if cur is None else cur + c * scale
        return SparsePoly._held(tuple(self.vars[i] for i in keep), {ne: c for ne, c in out.items() if c})

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


def multiply_out(groups, variables) -> SparsePoly:
    """sum_k gamma_k * d_k over `variables`, the tables' own, for groups
    (gamma_k, d_k).  A lone group of the int weight 1 is its d itself."""
    if len(groups) == 1 and type(groups[0][0]) is int and groups[0][0] == 1:
        return groups[0][1]
    acc = SparsePoly(variables)
    for gamma, d in groups:
        acc = acc + d.scale(gamma)
    return acc


def residue_terms(groups, r: int, lam: int) -> dict:
    """{exponent: residue in [1, r)} of sum_k gamma_k * d_k under the ring
    map `residue`: each weight is mapped once, and a group whose weight
    maps to 0 is not read."""
    out: dict = {}
    for gamma, d in groups:
        g = residue(gamma, r, lam)
        if g:
            for e, k in d.terms.items():
                out[e] = (out.get(e, 0) + g * residue(k, r, lam)) % r
    return {e: v for e, v in out.items() if v}


def _is_one_poly(poly: SparsePoly) -> bool:
    if len(poly.terms) != 1:
        return False
    (e, c), = poly.terms.items()
    return not any(e) and c == 1
