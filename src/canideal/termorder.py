"""Indexed variables z[N,mu], degree-graded monomials, and the custom term order.

A variable z[N,mu] is its index pair (N, mu), a NamedTuple.  A monomial is
the tuple of its factors sorted by (mu, N), one entry per copy, so its
degree is its length and z[0,1]*z[2,3] is (IndexPair(0, 1), IndexPair(2, 3)).

The order compares (i) standard degree ascending, (ii) total mu-weight
DESCENDING (a larger mu-sum makes a monomial smaller), (iii) total N-sum
ascending, and (iv) a lexicographic tie-break on the variables: at the
enumeration-smallest variable whose multiplicities differ, the monomial with
more copies is the larger.  The tie-break enumeration of the variables is a
free choice; both variants used here are exposed and every downstream count
is invariant under the switch.

The order is one sort key (`term_key`): (degree, -sum mu, sum N, the variable
keys sorted ascending with every component negated), so sorting, comparing
and taking a maximum are plain tuple comparisons.

A degree-2 monomial of class (rho, T) has key (2, -T, rho, v), so distinct
classes compare by (T, rho) alone and v orders one class.  The index-set
walk lists a class in ascending (mu, N) of the smaller factor, and the
default v ascends as that factor descends, so `monomial_classes` reads each
default class as the walk order reversed, with no sort; the alt tie-break
sorts each class once.  The generators are built in order, not sorted.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnknownTieBreak, ZeroPolynomial

TIE_BREAK_DEFAULT = "default"
TIE_BREAK_ALT = "alt"
TIE_BREAKS = (TIE_BREAK_DEFAULT, TIE_BREAK_ALT)


class IndexPair(NamedTuple):
    """A point (N, mu) indexing one variable z[N,mu]."""

    N: int
    mu: int


class Monomial(tuple):
    """Product of indexed variables: the tuple of its factors sorted by (mu, N).

    Its degree is its length; hash and equality are the tuple's own, so a
    monomial equals the plain tuple of its sorted factors.
    """

    __slots__ = ()

    def __new__(cls, factors):
        return super().__new__(cls, sorted(factors, key=lambda f: (f.mu, f.N)))

    @classmethod
    def _presorted(cls, factors) -> "Monomial":
        """A monomial from factors already sorted by (mu, N), with no sort."""
        return tuple.__new__(cls, factors)

    def __repr__(self):
        return format_monomial(self) or "1"


def term_key(tie_break: str = TIE_BREAK_DEFAULT):
    """Sort key of the term order: key(m1) < key(m2) exactly when m1 < m2.

    The key of m is (degree, -sum mu, sum N, v), where v lists the variable
    keys of m's factors in ascending enumeration order with every component
    negated.  The first three entries are rules (i)-(iii).  For rule (iv), take
    the ascending key sequences of two monomials of equal degree; at the first
    position where they differ, the side with the smaller entry holds more
    copies of that variable and every smaller variable is tied, so that side
    is the larger monomial under (iv).  Negating the components reverses lex
    order, which turns "smaller entry" into "larger key".  Keys are equal only
    for equal monomials.

    Raises UnknownTieBreak for a tie-break other than those in TIE_BREAKS.
    """
    if tie_break == TIE_BREAK_DEFAULT:
        def neg_var(f):
            return (-f.mu, -f.N)
    elif tie_break == TIE_BREAK_ALT:
        def neg_var(f):
            return (-f.N, -f.mu)
    else:
        raise UnknownTieBreak(f"unknown tie-break {tie_break!r}; expected one of {TIE_BREAKS}")

    def key(m: Monomial):
        return (
            len(m),
            -sum(f.mu for f in m),
            sum(f.N for f in m),
            tuple(sorted(map(neg_var, m), reverse=True)),
        )

    return key


def sort_monomials(monomials, tie_break: str = TIE_BREAK_DEFAULT) -> list[Monomial]:
    """Ascending under the term order."""
    return sorted(monomials, key=term_key(tie_break))


def leading_term(poly, tie_break: str = TIE_BREAK_DEFAULT):
    """(coefficient, monomial) of the order-maximal term.

    Accepts a GeneratorPoly or any iterable of (coefficient, Monomial) pairs.
    """
    key = term_key(tie_break)
    terms = getattr(poly, "terms", poly)
    best = max(terms, key=lambda term: key(term[1]), default=None)
    if best is None:
        raise ZeroPolynomial("the zero polynomial has no leading term")
    return best


def format_monomial(m: Monomial) -> str:
    """Stable serialization, e.g. "z[0,1]*z[2,3]"; empty string for degree 0."""
    return "*".join(f"z[{f.N},{f.mu}]" for f in m)
