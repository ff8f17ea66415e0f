"""The 50-digit reference for the curving's coefficients on both charts.

``basicgerbe`` reads the curving's coefficients off the log gaps
s = log_z lam_i - log_z lam_j in doubles (``contour._log_gap_phi``).  This
route forms the same coefficients from the difference of branch logs in
mpmath at 50 digits, where no digit that doubles keep is lost to
cancellation, so the tests can hold the kernel against them at any gap.
"""

import mpmath
import numpy as np


def mp_logs(z, lam) -> list:
    """log_z of each lam at the working precision, with its imaginary part in
    (arg z - 2 pi, arg z] as in ``log_cut_array``."""
    top, turn = mpmath.mpf(z.angle), 2 * mpmath.pi
    logs = []
    for v in (mpmath.mpc(complex(v)) for v in lam):
        phase = mpmath.arg(v)
        phase -= turn * mpmath.floor((phase - top + turn) / turn)
        logs.append(mpmath.log(abs(v)) + 1j * phase)
    return logs


def mp_curving_weights(z, lam) -> np.ndarray:
    """``_curving_weights``: the residue sums of log_z(xi) / ((xi - lam_i)
    (xi - lam_j)^2), s / (lam_i - lam_j)^2 - 1 / (lam_j (lam_i - lam_j)) off
    the diagonal and the order-3 residue -1 / (2 lam^2) on it."""
    with mpmath.workdps(50):
        vs = [mpmath.mpc(complex(v)) for v in lam]
        logs = mp_logs(z, lam)
        out = np.empty((len(vs), len(vs)), complex)
        for i, vi in enumerate(vs):
            for j, vj in enumerate(vs):
                d = vi - vj
                out[i, j] = complex(-1 / (2 * vj**2) if i == j else
                                    (logs[i] - logs[j]) / d**2 - 1 / (vj * d))
    return out


def mp_flag_coefficients(z, lam) -> np.ndarray:
    """``weyl.pullback_curving_closed``'s coefficients s + 1 - e^s."""
    with mpmath.workdps(50):
        logs = mp_logs(z, lam)
        return np.array([[complex(a - b + 1 - mpmath.exp(a - b)) for b in logs]
                         for a in logs])
