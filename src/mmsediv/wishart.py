"""Ordered spectra of complex Wishart matrices and tail-probability curves.

Samples the ascending eigenvalues of ``H^H H`` for standard complex
Gaussian ``H`` (N x M, N >= M), evaluates the unnormalized log joint
density of the ordered spectrum, and estimates two families of small-ball
probabilities whose high-SNR decay exponents are checked against the
closed-form value ``m (N - M + m)``:

* ``P(sum_{k<=m} rho * lambda_k < b)`` (`tail_sum_probability`),
* ``P(lambda_m <= b / rho)`` (`smallest_eigs_probability`).

For M = 2 the spectrum has a closed form in the columns ``x``, ``y`` of
``H``: with ``a = |x|^2``, ``d = |y|^2`` and ``g = x^H y``,
``lambda_max = (a + d + hypot(a - d, 2|g|)) / 2`` and
``lambda_min = det / lambda_max``, where ``det`` is the sum of the squared
2 x 2 minors of ``H`` (Cauchy-Binet), so a small ``lambda_min`` loses
nothing to cancellation.  Other M go through ``eigvalsh``.  The tail
kernel hands every trial whose event lies within ``_TIE_BAND`` of its
threshold back to ``eigvalsh``, so each event is decided as ``eigvalsh``
decides it.

The normalization constant of the joint density is never computed; density
checks normalize numerically over a compact box.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .exceptions import ConfigurationError, NumericalError
from .montecarlo import estimate_binomial_curve
from .randmat import sample_complex_gaussian

__all__ = [
    "WishartSpectrum",
    "log_density_unnormalized",
    "sample_ordered_spectrum",
    "sample_spectra",
    "smallest_eigs_probability",
    "tail_sum_probability",
]

# lowest eigenvalue, relative to lambda_max, that `eigvalsh` may return
_EIG_SLACK = -1e-12
# half-width, relative to lambda_max, of the band around an event's threshold
# in which `_TailKernel` lets `eigvalsh` decide the event
_TIE_BAND = 1e-12


@dataclass(frozen=True)
class WishartSpectrum:
    """Ascending eigenvalues of H^H H with the generating dimensions."""

    eigenvalues: np.ndarray
    M: int
    N: int


def _check_dims(M, N):
    if not 1 <= M <= N:
        raise ConfigurationError(f"need N >= M >= 1, got M={M}, N={N}")


def _eigvalsh_spectra(h):
    """Ascending eigenvalues of H^H H by ``eigvalsh``, clamped at zero."""
    eigs = np.linalg.eigvalsh(np.einsum("bnj,bnk->bjk", h.conj(), h))
    if np.any(eigs < _EIG_SLACK * eigs[..., -1:]):
        raise NumericalError(
            f"eigensolver returned values below {_EIG_SLACK} lambda_max")
    return np.maximum(eigs, 0.0)


def _spectra(h):
    """Ascending eigenvalues of H^H H for a (n, N, M) stack, nonnegative.

    M = 2 uses the closed form of the module docstring.  Its
    ``lambda_min`` is clamped to ``[0, lambda_max]``, which keeps every row
    ascending when the two eigenvalues agree to rounding, and ``H = 0``
    gives ``(0, 0)``.  It lies within a few ulps of ``lambda_max`` of the
    ``eigvalsh`` spectrum (`_eigvalsh_spectra`), which serves every other M.
    """
    if h.shape[-1] != 2:
        return _eigvalsh_spectra(h)
    x, y = h[..., 0], h[..., 1]
    a = np.einsum("bn,bn->b", x.conj(), x).real
    d = np.einsum("bn,bn->b", y.conj(), y).real
    g = np.abs(np.einsum("bn,bn->b", x.conj(), y))
    lam_max = 0.5 * (a + d + np.hypot(a - d, 2.0 * g))
    det = 0.0
    for i, j in combinations(range(h.shape[1]), 2):
        minor = x[:, i] * y[:, j] - x[:, j] * y[:, i]
        det = det + (minor.real * minor.real + minor.imag * minor.imag)
    lam_min = np.divide(det, lam_max, out=np.zeros_like(lam_max),
                        where=lam_max > 0.0)
    return np.stack([np.minimum(lam_min, lam_max), lam_max], axis=1)


def sample_spectra(M, N, rng, n_draws):
    """Stack of ``n_draws`` ordered spectra, shape (n_draws, M), ascending."""
    _check_dims(M, N)
    return _spectra(sample_complex_gaussian(N, M, rng, size=n_draws))


def sample_ordered_spectrum(M, N, rng):
    """Ordered eigenvalues of H^H H for one fresh CN(0,1) draw of H."""
    return WishartSpectrum(eigenvalues=sample_spectra(M, N, rng, 1)[0],
                           M=int(M), N=int(N))


def log_density_unnormalized(spectrum):
    """Log of the joint ordered-eigenvalue density, normalizer dropped.

    Evaluates ``sum_i ((N - M) ln lambda_i - lambda_i)
    + 2 sum_{i<j} ln |lambda_i - lambda_j|``; the expression is symmetric
    under permutations of its arguments.  Repeated or nonpositive
    eigenvalues lie on the density's boundary and are rejected.
    """
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size != spectrum.M:
        raise ValueError(f"expected {spectrum.M} eigenvalues, got shape {lam.shape}")
    if np.any(lam <= 0.0):
        raise ValueError("density requires strictly positive eigenvalues")
    iu = np.triu_indices(lam.size, k=1)
    gaps = np.abs(lam[:, None] - lam[None, :])[iu]
    if lam.size > 1 and np.any(gaps == 0.0):
        raise ValueError("density requires strictly distinct eigenvalues")
    power = spectrum.N - spectrum.M
    value = float(np.sum(power * np.log(lam) - lam))
    if lam.size > 1:
        value += float(2.0 * np.sum(np.log(gaps)))
    return value


_SPECTRUM_CHUNK = 65536


# Tail events: module-level functions, so that a `_TailKernel` pickles.
# Each one is monotone: raising any eigenvalue can only turn it false.
def _sum_below(lam, m, b, rho):
    return rho * lam[:, :m].sum(axis=1) < b


def _mth_below(lam, m, b, rho):
    return lam[:, m - 1] <= b / rho


@dataclass(frozen=True)
class _TailKernel:
    """Counts the ascending spectra ``lam`` with ``event(lam, m, b, rho)``.

    A trial counts for sure if its event holds with every eigenvalue raised
    by ``_TIE_BAND * lambda_max``.  A trial whose event holds only with
    every eigenvalue lowered by that much is decided on its `eigvalsh`
    spectrum instead.  The closed-form M = 2 spectrum lies far inside the
    band around the `eigvalsh` one, so every count equals the `eigvalsh`
    count; for other M `_spectra` is `eigvalsh` already.
    """

    M: int
    N: int
    m: int
    b: float
    event: Callable

    def __call__(self, rho, rng, n_trials):
        h = sample_complex_gaussian(self.N, self.M, rng, size=n_trials)
        events = 0
        for lo in range(0, n_trials, _SPECTRUM_CHUNK):
            chunk = h[lo:lo + _SPECTRUM_CHUNK]
            lam = _spectra(chunk)
            band = _TIE_BAND * lam[:, -1:]
            sure = self.event(lam + band, self.m, self.b, rho)
            near = self.event(lam - band, self.m, self.b, rho) & ~sure
            events += int(np.count_nonzero(sure))
            if near.any():
                exact = _eigvalsh_spectra(chunk[near])
                events += int(np.count_nonzero(self.event(exact, self.m, self.b, rho)))
        return events


def _tail_curve(kind, event, M, N, m, b, rho_grid, policy, master_seed, workers):
    """Checks the arguments and estimates the event curve of one tail kind."""
    _check_dims(M, N)
    if not 1 <= m <= M:
        raise ConfigurationError(f"need 1 <= m <= M, got m={m}, M={M}")
    if b <= 0.0:
        raise ConfigurationError(f"threshold b must be positive, got {b}")
    kernel = _TailKernel(M=int(M), N=int(N), m=int(m), b=float(b), event=event)
    return estimate_binomial_curve(kernel, rho_grid, policy=policy,
                                   master_seed=master_seed, workers=workers,
                                   scenario=f"wishart-{kind}-M{M}-N{N}-m{m}-b{b:g}")


def tail_sum_probability(M, N, m, b, rho_grid, policy=None, master_seed=0,
                         workers=1):
    """Monte Carlo curve of P(sum of the m smallest eigenvalues * rho < b).

    Same adaptive stopping, confidence intervals and seeding contract as
    `mmsediv.diversity.estimate_outage`; the fitted log-log slope of the
    returned curve estimates the decay exponent m (N - M + m).
    """
    return _tail_curve("sum", _sum_below, M, N, m, b, rho_grid, policy,
                       master_seed, workers)


def smallest_eigs_probability(M, N, m, b, rho_grid, policy=None, master_seed=0,
                              workers=1):
    """Monte Carlo curve of P(lambda_m <= b / rho) for the ordered spectrum.

    The event that the m smallest eigenvalues all fall below b/rho is the
    event on the m-th one alone; its decay exponent is m (N - M + m).
    """
    return _tail_curve("min", _mth_below, M, N, m, b, rho_grid, policy,
                       master_seed, workers)
