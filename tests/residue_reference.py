"""Pole-by-pole residue sums: the reference for the vectorised residue weights.

The closed forms in ``basicgerbe`` sum residues through eigenbasis weight
tables; this slow, scalar route sums the same residues one pole at a time
from the Laurent coefficients, so the tests can hold the tables against it.
"""

import numpy as np

from basicgerbe import GerbeError, IncomparableError
from basicgerbe.contour import POINT_TOL, log_cut_array


class UnsupportedOrderError(GerbeError):
    """Residue evaluation requested for a pole order above 3."""


def residue_eval(poles, with_log=None) -> complex:
    """Sum of residues of [log_z(xi)] * prod (xi - lam_k)^{-m_k}.

    ``poles`` is a sequence of (lam, order) with order <= 3; ``with_log``
    is the cut point z of the log_z factor, or None for no factor.
    """
    poles = [(complex(lam), int(m)) for lam, m in poles]
    for lam, m in poles:
        if m > 3 or m < 1:
            raise UnsupportedOrderError(f"pole order {m} is not supported")
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i][0] - poles[j][0]) <= POINT_TOL:
                raise IncomparableError("poles are not distinct")

    total = 0j
    for k, (lam, m) in enumerate(poles):
        others = [(mu, mm) for i, (mu, mm) in enumerate(poles) if i != k]
        r0 = np.prod([(lam - mu) ** (-mm) for mu, mm in others]) if others else 1.0
        s1 = sum(-mm / (lam - mu) for mu, mm in others)
        s2 = sum(mm / (lam - mu) ** 2 for mu, mm in others)
        r1 = r0 * s1
        r2 = r0 * (s1 * s1 + s2)
        if with_log is not None:
            l0 = log_cut_array(with_log, lam)
            l1 = 1.0 / lam
            l2 = -1.0 / lam**2
        else:
            l0, l1, l2 = 1.0, 0.0, 0.0
        if m == 1:
            total += l0 * r0
        elif m == 2:
            total += l1 * r0 + l0 * r1
        else:
            total += (l2 * r0 + 2 * l1 * r1 + l0 * r2) / 2
    return complex(total)
