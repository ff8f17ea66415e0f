"""Random instances for property sweeps: well-separated spectra and cuts.

``sample_rng(seed, suite, i)`` makes the one ``numpy.random.Generator`` of a
sample; every sampler here and in ``linalg``, ``weyl`` and ``fibers`` takes
it as ``rng`` and draws from it in a fixed order, so a seed fixes every number.

Cuts are drawn from the middle half of angular gaps so that contours stay
uniformly away from resolvent poles and quadrature converges within the
node budget.  Group elements are resampled until the spectrum (including
the distance to the identity) clears a minimum gap.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .contour import CutCirclePoint, cut_point
from .errors import SamplingError
from .linalg import (
    TWO_PI,
    SpectralDecomposition,
    UnitaryMatrix,
    random_unitary,
    spectral_decompose,
)
from .projectors import ArcContext, classify

MIN_SPECTRAL_GAP = 0.2
MAX_TRIES = 200


def sample_rng(seed: int, suite: str, index: int) -> np.random.Generator:
    """Deterministic per-sample generator, independent of execution order."""
    digest = hashlib.sha256(f"{seed}:{suite}:{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def well_separated_unitary(n: int, rng) -> tuple[UnitaryMatrix, SpectralDecomposition]:
    """Haar sample resampled until all angular gaps (and the gap to the
    identity) are at least ``MIN_SPECTRAL_GAP``."""
    for _ in range(MAX_TRIES):
        g = random_unitary(n, rng)
        spec = spectral_decompose(g)
        # a repeated eigenvalue, or one at the identity, leaves a zero-width gap
        if np.diff(spec.marks).min() >= MIN_SPECTRAL_GAP:
            return g, spec
    raise SamplingError(f"no well-separated spectrum in {MAX_TRIES} draws")


def _gap_list(spec: SpectralDecomposition) -> list[tuple[float, float]]:
    """Angular gaps between consecutive marks (eigenvalues and the identity),
    without the zero-width ones."""
    marks = spec.marks
    return [(float(a), float(b)) for a, b in zip(marks[:-1], marks[1:]) if b > a]


def random_cut_in_gap(gap: tuple[float, float], rng) -> CutCirclePoint:
    """A cut uniform over the middle half of the gap."""
    lo, hi = gap
    width = hi - lo
    return cut_point((lo + width * rng.uniform(0.25, 0.75)) % TWO_PI)


def random_cuts(spec: SpectralDecomposition, rng, count: int) -> list[CutCirclePoint]:
    """``count`` cuts in distinct angular gaps (needs count <= gap count)."""
    gaps = _gap_list(spec)
    if count > len(gaps):
        raise SamplingError("not enough angular gaps for the requested cuts")
    picks = rng.choice(len(gaps), size=count, replace=False)
    return [random_cut_in_gap(gaps[i], rng) for i in picks]


def random_positive_context(spec: SpectralDecomposition, rng) -> ArcContext:
    """A positive-stratum context with at least one enclosed eigenvalue.

    Two cuts in distinct gaps have the eigenvalue that ends the lower gap
    between them, so the pair is never null.
    """
    return classify(*random_cuts(spec, rng, 2), spec).positive


def random_null_pair(
    spec: SpectralDecomposition, rng
) -> tuple[CutCirclePoint, CutCirclePoint]:
    """Two distinct cuts inside the same angular gap (a null pair)."""
    gaps = _gap_list(spec)
    gap = gaps[int(rng.integers(len(gaps)))]
    for _ in range(MAX_TRIES):
        z1 = random_cut_in_gap(gap, rng)
        z2 = random_cut_in_gap(gap, rng)
        if abs(z1.value - z2.value) > 1e-6:
            return z1, z2
    raise SamplingError("failed to draw a distinct null pair")


def descending_cuts(
    spec: SpectralDecomposition, rng, count: int
) -> list[CutCirclePoint]:
    """Cuts in distinct gaps, sorted descending in the circular order."""
    cuts = random_cuts(spec, rng, count)
    return sorted(cuts, key=lambda c: -c.angle)
