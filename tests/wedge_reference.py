"""The slot-permutation sum of a trace form: the reference for nu.

``basic_three_form`` evaluates nu = -(1 / 24 pi^2) tr((g^{-1} dg)^3) as
one commutator trace, using cyclicity of the trace.  This slow route sums
every signed slot order, so the tests can hold that shortcut against the
wedge convention it rests on.
"""

import itertools

import numpy as np

from basicgerbe import DimensionError
from basicgerbe.linalg import _perm_sign


def wedge_trace_eval(mats, slots) -> complex:
    """tr(M1 dg M2 dg ... Mk dg) evaluated on k slot matrices.

    Full permutation sum with signs, no 1/k! factor.  ``mats`` are the k
    coefficient matrices, ``slots`` the k ambient tangent matrices.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    slots = [np.asarray(s, dtype=complex) for s in slots]
    if len(mats) != len(slots):
        raise DimensionError("coefficient/slot count mismatch")
    k = len(slots)
    total = 0j
    for perm in itertools.permutations(range(k)):
        sign = _perm_sign(perm)
        acc = np.eye(mats[0].shape[0], dtype=complex)
        for m, p in zip(mats, perm):
            acc = acc @ m @ slots[p]
        total += sign * np.trace(acc)
    return complex(total)
