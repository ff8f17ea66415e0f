"""Stack trace tables: the reference for the flag-torus closed forms.

``basicgerbe.weyl`` sums the pulled-back curving and its exterior
derivative from each tangent's n x n frame generator.  This slower route
forms the (n, n, n) stacks dP_i and takes every trace as an einsum over
them, so the tests can hold the generator formulas against it.
"""

import math

import numpy as np

from basicgerbe.contour import log_cut_array


def trace_table(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """T[i, k] = tr(A_i [B_k, C_k]) for stacks (n, n, n) of matrices."""
    return np.einsum("iab,kba->ik", a, b @ c - c @ b)


def frame_trace_table(q: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """T[i, k] = tr(P_i [B_k, C_k]) = q_i^H [B_k, C_k] q_i."""
    return np.einsum("ai,kai->ik", q.conj(), (b @ c - c @ b) @ q)


def pullback_curving(pt, z, tan1, tan2) -> complex:
    """(i / 4 pi) sum_{i != k} (log_z lam_i - log_z lam_k + (lam_k - lam_i) / lam_k)
    tr(P_i dP_k dP_k)."""
    lam = pt.torus_values
    logs = log_cut_array(z, lam)
    coeffs = (
        logs[:, None] - logs[None, :] + (lam[None, :] - lam[:, None]) / lam[None, :]
    )
    val = np.sum(coeffs * frame_trace_table(pt.frame, tan1.dP, tan2.dP))
    return complex(1j / (4 * math.pi) * val)


def pullback_df(pt, tan1, tan2, tan3) -> complex:
    """The exterior derivative of the pulled-back curving, antisymmetrized
    as the cyclic sum over which tangent fills the first slot."""
    lam = pt.torus_values
    off = ~np.eye(pt.dim, dtype=bool)
    ratio = off * lam[:, None] / lam[None, :]
    total = 0j
    for u, v, w in ((tan1, tan2, tan3), (tan2, tan3, tan1), (tan3, tan1, tan2)):
        rate = u.dlam / lam
        bracket = off * (
            rate[:, None]
            - rate[None, :]
            - u.dlam[:, None] / lam[None, :]
            + lam[:, None] * u.dlam[None, :] / lam[None, :] ** 2
        )
        total += np.sum(bracket * frame_trace_table(pt.frame, v.dP, w.dP))
        total -= np.sum(ratio * trace_table(u.dP, v.dP, w.dP))
    return complex(1j / (4 * math.pi) * total)
