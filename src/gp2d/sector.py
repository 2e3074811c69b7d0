"""The occupation bijection U_N from the N-particle sector onto the
truncated excitation space, audited on the excitation basis alone.

The symmetric N-particle states over the zero mode and the excitation
modes are the rows (n0, n_1, ..., n_m) with n0 = N - sum n_i.  U_N sends
|n0, vec n> to the excitation state |vec n>, so the preimage of each
excitation state is that state with n0 prepended, and a*_i a_j on the
sector is occupation arithmetic on those rows, slot 0 the zero mode.
"""

from __future__ import annotations

import math
from itertools import chain, islice, product

import numpy as np

from .fock import _entries, _largest_sums, build_basis


def unitary_excitation_map(modes, N: int) -> dict:
    """Audit U_N on ``build_basis(modes, N)``: the residuals of unitarity
    and of the four conjugation rules

      U a*_0 a_0 U* = N - N+,   U a*_p a_0 U* = sqrt(N) b*_p,
      U a*_0 a_p U* = sqrt(N) b_p,   U a*_p a_q U* = a*_p a_q,

    each the largest entry of the sector side minus its ladder form,
    summed over their nonzero entries.  Every rule's entries go into one
    keyed sum (``_largest_sums``): the sector sides, then the ladder
    forms from one walk.
    """
    basis = build_basis(modes, N)
    sector = np.hstack((N - basis.totals()[:, None], basis.states))
    found = basis.position(sector[:, 1:])

    def side(rule, i, j):
        # U (a*_i a_j on the sector rows) U^*, keyed by its rule
        cols = np.flatnonzero(sector[:, j])
        occ = sector[cols]
        coef = np.sqrt(occ[:, j].astype(float))
        occ[:, j] -= 1
        coef *= np.sqrt(occ[:, i] + 1.0)
        occ[:, i] += 1
        return (np.full(len(cols), rule), basis.position(occ[:, 1:]),
                found[cols], coef)

    idx, root = range(basis.n_modes), math.sqrt(N)
    # each rule: (i, j) of a*_i a_j and its ladder form (terms, diagonal)
    rules = {
        "rule_n0": [(0, 0, ([], N - basis.totals().astype(float)))],
        "rule_create": [(i + 1, 0, ([(root, [("bd", i)])], None))
                        for i in idx],
        "rule_annihilate": [(0, i + 1, ([(root, [("b", i)])], None))
                            for i in idx],
        "rule_hop": [(i + 1, j + 1, ([(1.0, [("ad", i), ("a", j)])], None))
                     for i, j in product(idx, repeat=2)],
    }
    every = list(chain.from_iterable(rules.values()))
    sides = (side(k, i, j) for k, (i, j, _) in enumerate(every))
    forms = ((k, r, c, -v)
             for k, r, c, v in _entries(basis, [f for *_, f in every]))
    worst = iter(_largest_sums(basis.dim, len(every),
                               chain(sides, forms)).tolist())
    report = {"unitary": float(np.abs(np.bincount(found, minlength=basis.dim)
                                      - 1).max())}
    for name, group in rules.items():
        report[name] = max(islice(worst, len(group)))
    report["pass"] = all(v <= 1e-12 for v in report.values())
    return report
