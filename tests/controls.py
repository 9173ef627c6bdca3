"""Negative controls built on generator objects, for the tests that compare
`certify --corrupt-one` and the membership test with a corrupted generator."""

import dataclasses

from canideal.exactalg import SparsePoly


def corrupt_generator(gen, bump=1):
    """The generator with `bump` added to its last, non-leading coefficient,
    the term order kept."""
    coeff, mono = gen.terms[-1]
    return dataclasses.replace(gen, terms=gen.terms[:-1] + ((coeff + SparsePoly.constant(coeff.vars, bump), mono),))
