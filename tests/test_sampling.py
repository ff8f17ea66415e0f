import numpy as np
import pytest

from basicgerbe import SamplingError, UnitaryMatrix, sample_regular, spectral_decompose
from basicgerbe.sampling import random_cuts, random_null_pair, well_separated_unitary


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


@pytest.mark.parametrize("draw, message", [
    (lambda rng: well_separated_unitary(3, rng),
     "no well-separated spectrum in 200 draws"),
    (lambda rng: random_cuts(SPEC, rng, 5),
     "not enough angular gaps for the requested cuts"),
    (lambda rng: random_null_pair(SPEC, rng), "failed to draw a distinct null pair"),
    (lambda rng: sample_regular(3, rng), "no regular spectrum found in 1000 draws"),
], ids=["well-separated", "cuts", "null-pair", "regular"])
def test_sampler_gives_up(draw, message):
    with pytest.raises(SamplingError) as err:
        draw(Stuck())
    assert str(err.value) == message
