import numpy as np

from basicgerbe import SamplingError, UnitaryMatrix, sample_regular, spectral_decompose
from basicgerbe.sampling import random_cuts, random_null_pair, well_separated_unitary
from refusals import refusal_test


class Stuck:
    """A generator whose every draw a sampler rejects: each normal block is the
    identity, so a Haar draw is c I, and each uniform draw is its lower end."""

    def standard_normal(self, shape):
        return np.eye(*shape)

    def uniform(self, low, high, size=None):
        return low if size is None else np.full(size, low)

    def integers(self, high):
        return 0


# three eigenvalues and the identity mark four gaps
SPEC = spectral_decompose(UnitaryMatrix(np.diag(np.exp([1j, 3j, 5j]))))


REFUSALS = {
    "well-separated": (SamplingError, "no well-separated spectrum in 200 draws",
                       lambda: well_separated_unitary(3, Stuck())),
    "cuts": (SamplingError, "not enough angular gaps for the requested cuts",
             lambda: random_cuts(SPEC, Stuck(), 5)),
    "null-pair": (SamplingError, "failed to draw a distinct null pair",
                  lambda: random_null_pair(SPEC, Stuck())),
    "regular": (SamplingError, "no regular spectrum found in 1000 draws",
                lambda: sample_regular(3, Stuck())),
}
test_refused = refusal_test(REFUSALS)
