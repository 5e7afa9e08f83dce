"""Ordered spectra of complex Wishart matrices and tail-probability curves.

Samples the ascending eigenvalues of ``H^H H`` for standard complex
Gaussian ``H`` (N x M, N >= M), evaluates the unnormalized log joint
density of the ordered spectrum, and estimates two families of small-ball
probabilities whose high-SNR decay exponents are checked against the
closed-form value ``m (N - M + m)``:

* ``P(rho * sum_{k<=m} lambda_k < b)`` (`tail_sum_probability`),
* ``P(rho * lambda_m < b)`` (`smallest_eigs_probability`).

Both are the one-tap case of the outage kernel `diversity._count_below`,
with a spectral statistic and threshold b.

For M = 2 the spectrum has a closed form in the columns ``x``, ``y`` of
``H``: with ``a = |x|^2``, ``d = |y|^2`` and ``g = x^H y``,
``lambda_max = (a + d + hypot(a - d, 2|g|)) / 2`` and
``lambda_min = det / lambda_max``, where ``det`` is the sum of the squared
2 x 2 minors of ``H`` (Cauchy-Binet), so a small ``lambda_min`` loses
nothing to cancellation.  Other M go through ``eigvalsh``.  Every tail
event is decided once, on that spectrum: at M = 2 the closed form decides
it.

The normalization constant of the joint density is never computed; density
checks normalize numerically over a compact box.
"""

from __future__ import annotations

import functools
from itertools import combinations

import numpy as np

from .diversity import _count_below
from .exceptions import ConfigurationError, NumericalError, _require_integers
from .montecarlo import estimate_binomial_curve
from .randmat import sample_complex_gaussian

__all__ = [
    "log_density_unnormalized",
    "sample_spectra",
    "smallest_eigs_probability",
    "tail_sum_probability",
]

# lowest eigenvalue, relative to lambda_max, that `eigvalsh` may return
_EIG_SLACK = -1e-12
_SPECTRUM_CHUNK = 65536


def _check_dims(M, N):
    _require_integers(M=M, N=N)
    if not 1 <= M <= N:
        raise ConfigurationError(f"need N >= M >= 1, got M={M}, N={N}")


def _eigvalsh_spectra(h):
    """Ascending eigenvalues of H^H H by ``eigvalsh``, clamped at zero."""
    eigs = np.linalg.eigvalsh(np.einsum("bnj,bnk->bjk", h.conj(), h))
    if np.any(eigs < _EIG_SLACK * eigs[..., -1:]):
        raise NumericalError(
            f"eigensolver returned values below {_EIG_SLACK} lambda_max")
    return np.maximum(eigs, 0.0)


def _pair_spectra(h):
    """Closed-form spectra of a (n, N, 2) stack (module docstring).

    ``lambda_min`` is clamped to ``[0, lambda_max]``, which keeps every row
    ascending when the two eigenvalues agree to rounding, and ``H = 0``
    gives ``(0, 0)``.  It lies within a few ulps of ``lambda_max`` of the
    ``eigvalsh`` spectrum.
    """
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


def _spectra(h):
    """Ascending eigenvalues of H^H H for a (n, N, M) stack, nonnegative.

    Closed form at M = 2, ``eigvalsh`` otherwise, `_SPECTRUM_CHUNK` rows at
    a time: beyond the input and the result, temporaries stay bounded.
    """
    spectra = _pair_spectra if h.shape[-1] == 2 else _eigvalsh_spectra
    lam = np.empty((len(h), h.shape[-1]))
    for lo in range(0, len(h), _SPECTRUM_CHUNK):
        lam[lo:lo + _SPECTRUM_CHUNK] = spectra(h[lo:lo + _SPECTRUM_CHUNK])
    return lam


def sample_spectra(M, N, rng, n_draws):
    """Stack of ``n_draws`` ordered spectra, shape (n_draws, M), ascending."""
    _check_dims(M, N)
    _require_integers(n_draws=n_draws)
    return _spectra(sample_complex_gaussian(N, M, rng, size=n_draws))


def log_density_unnormalized(eigenvalues, N):
    """Log of the joint ordered-eigenvalue density, normalizer dropped.

    ``eigenvalues`` is the 1-D spectrum of an M x M Wishart matrix H^H H,
    with M its length, and ``N >= M`` is the row count of H.  Evaluates
    ``sum_i ((N - M) ln lambda_i - lambda_i)
    + 2 sum_{i<j} ln |lambda_i - lambda_j|``; the expression is symmetric
    under permutations of its arguments.  Repeated, nonpositive or
    non-finite eigenvalues lie off the density's open support and are rejected.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"expected a 1-D spectrum, got shape {lam.shape}")
    _check_dims(lam.size, N)
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError("density requires finite, strictly positive eigenvalues")
    iu = np.triu_indices(lam.size, k=1)
    gaps = np.abs(lam[:, None] - lam[None, :])[iu]
    if lam.size > 1 and np.any(gaps == 0.0):
        raise ValueError("density requires strictly distinct eigenvalues")
    power = N - lam.size
    value = float(np.sum(power * np.log(lam) - lam))
    if lam.size > 1:
        value += float(2.0 * np.sum(np.log(gaps)))
    return value


# Tail statistics of one-tap draws (n, 1, N, M); module-level, so that a
# kernel pickles
def _sum_statistic(taps, rho, m):
    return rho * _spectra(taps[:, 0])[:, :m].sum(axis=1)


def _mth_statistic(taps, rho, m):
    return rho * _spectra(taps[:, 0])[:, m - 1]


def _tail_curve(kind, statistic, M, N, m, b, rho_grid, policy, master_seed, workers):
    """Checks the arguments and estimates the event curve of one tail kind."""
    _check_dims(M, N)
    _require_integers(m=m)
    if not 1 <= m <= M:
        raise ConfigurationError(f"need 1 <= m <= M, got m={m}, M={M}")
    if not (np.isfinite(b) and b > 0.0):
        raise ConfigurationError(f"threshold b must be positive and finite, got {b}")
    kernel = functools.partial(_count_below,
                               functools.partial(statistic, m=int(m)),
                               float(b), (int(N), int(M), 1))
    return estimate_binomial_curve(kernel, rho_grid, policy=policy,
                                   master_seed=master_seed, workers=workers,
                                   scenario=f"wishart-{kind}-M{M}-N{N}-m{m}-b{b:g}")


def tail_sum_probability(M, N, m, b, rho_grid, policy=None, master_seed=0,
                         workers=1):
    """Monte Carlo curve of P(rho * sum of the m smallest eigenvalues < b).

    Same adaptive stopping, confidence intervals and seeding contract as
    `mmsediv.diversity.estimate_outage`; the fitted log-log slope of the
    returned curve estimates the decay exponent m (N - M + m).
    """
    return _tail_curve("sum", _sum_statistic, M, N, m, b, rho_grid, policy,
                       master_seed, workers)


def smallest_eigs_probability(M, N, m, b, rho_grid, policy=None, master_seed=0,
                              workers=1):
    """Monte Carlo curve of P(rho * lambda_m < b) for the ordered spectrum.

    The event ``rho * lambda_m < b`` has the same law as
    ``lambda_m <= b / rho``: they differ only at ``lambda_m = b / rho``,
    which has probability zero.  That the m smallest eigenvalues all fall
    below b/rho is the event on the m-th one alone; its decay exponent is
    m (N - M + m).
    """
    return _tail_curve("min", _mth_statistic, M, N, m, b, rho_grid, policy,
                       master_seed, workers)
