"""Fermion operators written term by term, for tests.

A term is ``(coefficient, ops)``: ops is an ordered tuple of
``(spin_orbital, is_creation)`` pairs, and an empty tuple is a constant.
``fermion_operator`` packs terms into the array blocks of
``vqemb.mapping.FermionOperator``, one block per run of terms with the same
number of operators; ``fermion_terms`` unpacks the blocks again.
"""

from itertools import groupby

import numpy as np

from vqemb.mapping import FermionOperator


def fermion_operator(n_modes, terms):
    blocks = []
    for k, run in groupby(terms, key=lambda term: len(term[1])):
        run = list(run)
        coeffs = np.array([complex(c) for c, _ in run])
        rows = [[2 * mode + int(creation) for mode, creation in ops] for _, ops in run]
        blocks.append((coeffs, np.array(rows, dtype=np.intp).reshape(len(run), k)))
    return FermionOperator(n_modes, tuple(blocks))


def fermion_terms(f):
    """[(coefficient, ops)] of every term of ``f``, in term order."""
    return [
        (c, tuple((row >> 1, bool(row & 1)) for row in rows))
        for coeffs, ladder in f.blocks
        for c, rows in zip(coeffs.tolist(), ladder.tolist())
    ]
