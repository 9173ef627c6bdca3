"""Negative controls built on generator objects, for the tests that compare
`certify --corrupt-one` and the membership test with a corrupted generator,
and the monomial c * name^exp that the tests build reference polynomials
from."""

import dataclasses

from canideal.exactalg import SparsePoly


def corrupt_generator(gen, bump=1):
    """The generator with `bump` added to its last, non-leading coefficient,
    the term order kept."""
    coeff, mono = gen.terms[-1]
    return dataclasses.replace(gen, terms=gen.terms[:-1] + ((coeff + SparsePoly.constant(coeff.vars, bump), mono),))


def variable(variables, name, exp=1, c=1):
    """The monomial c * name^exp over `variables`."""
    variables = tuple(variables)
    e = [0] * len(variables)
    e[variables.index(name)] = exp
    return SparsePoly(variables, {tuple(e): c})
