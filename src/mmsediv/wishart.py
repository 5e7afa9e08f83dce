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

Spectra come from ``eigvalsh`` of the Gram matrix ``H^H H``, and every
tail event is decided as that spectrum decides it.

Trace screen (m = M).  With ``t = tr(H^H H) = sum_k lambda_k``, the sum
of all M eigenvalues is t and ``t / M <= lambda_M``.  So for m = M each
statistic first takes the bound ``B = rho t`` (sum tail) or
``B = rho t / M`` (m-th eigenvalue) and computes spectra only for the rows
the bound leaves open.  The sum tail decides a row when
``|B - b| > s b``; the m-th eigenvalue decides a non-event when
``B > (1 + s) b``.  A NaN or infinite bound decides nothing, so such rows
take the spectral path, which refuses them.  The relative slack ``s``
covers the rounding of both sides.  With u = 2^-53:

* the trace is a sum of 2NM squares, within ``2NM u t`` of t, and the
  products with rho and 1/M add 3u relative to B;
* ``eigvalsh`` works on a Gram matrix whose entries are dot products of
  length N, within ``(2N + 2) u t`` in Frobenius norm, and returns the
  eigenvalues of a matrix within ``p(M) u t`` of that, with p(M) <= M^2
  for LAPACK's symmetric solvers; by Weyl each computed eigenvalue is
  within ``(2N + 2 + M^2) u t`` of its exact value.

So the computed sum statistic lies within ``kappa u B`` of B, and the
computed m-th eigenvalue statistic is at least ``(1 - kappa u) B``, with
``kappa <= M (4N + 3 + M^2) + 3 < 40 (N + M)^3``.  `_trace_slack` takes
``s = 2^-40 (N + M)^3``, which is ``2^13 (N + M)^3 u``, at least 200
times ``kappa u``: at M = N = 2, ``s = 5.8e-11`` against
``kappa u < 1e-14``.  A decided row's B therefore lies on the side of b
where its spectral statistic lies, and every count is the count the
spectra give.  Rows the bound decides never reach
``eigvalsh``, so the ``_EIG_SLACK`` check applies to every spectrum that
is computed, and only to those.  For m < M no trace is taken.

The normalization constant of the joint density is never computed; density
checks normalize numerically over a compact box.
"""

from __future__ import annotations

import functools

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
# `_spectra` chunk temporaries; a row takes 16 M (N + M) B, so a chunk
# holds 40,960 rows at M = N = 2
_SPECTRUM_BYTES = 5 * 2**20


def _check_dims(M, N):
    _require_integers(M=M, N=N)
    if not 1 <= M <= N:
        raise ConfigurationError(f"need N >= M >= 1, got M={M}, N={N}")


def _spectrum_chunk(n_rx, m):
    """Rows of (N, M) draws per `_spectra` chunk; no spectrum depends on it."""
    return max(1, _SPECTRUM_BYTES // (16 * m * (n_rx + m)))


def _spectra(h):
    """Ascending eigenvalues of H^H H for an (n, N, M) stack by ``eigvalsh``,
    `_spectrum_chunk` rows at a time, clamped at zero.

    A failed or non-finite eigensolve raises `NumericalError`.  The
    ``_EIG_SLACK`` check covers every spectrum computed here; tail rows
    that the m = M trace bound decides never get here (module docstring).
    """
    chunk = _spectrum_chunk(*h.shape[-2:])
    lam = np.empty((len(h), h.shape[-1]))
    for lo in range(0, len(h), chunk):
        part = h[lo:lo + chunk]
        try:
            eigs = np.linalg.eigvalsh(np.einsum("bnj,bnk->bjk", part.conj(), part))
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"eigensolver failed: {err}") from err
        # NaN or infinite entries give NaN eigenvalues at M <= 2, LinAlgError above
        if not np.all(np.isfinite(eigs)):
            raise NumericalError("eigensolver returned non-finite eigenvalues")
        if np.any(eigs < _EIG_SLACK * eigs[..., -1:]):
            raise NumericalError(
                f"eigensolver returned values below {_EIG_SLACK} lambda_max")
        np.maximum(eigs, 0.0, out=lam[lo:lo + chunk])
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
    # at M = 1 there are no gaps, and their log sum adds 0.0
    if np.any(gaps == 0.0):
        raise ValueError("density requires strictly distinct eigenvalues")
    power = N - lam.size
    return (float(np.sum(power * np.log(lam) - lam))
            + float(2.0 * np.sum(np.log(gaps))))


def _trace(h):
    """tr(H^H H) of each matrix of an (n, N, M) stack: the sum of its 2NM squares."""
    v = h.view(np.float64)
    return np.einsum("inj,inj->i", v, v)


def _trace_slack(h):
    """Relative margin by which a trace bound must clear b (module docstring)."""
    return 2.0**-40 * sum(h.shape[-2:]) ** 3


# Tail statistics of one-tap draws (n, 1, N, M), each compared with b; at
# m = M the trace decides most rows (module docstring).  Module-level, so
# that a kernel pickles.
def _sum_statistic(taps, rho, b, m):
    h = taps[:, 0]
    if m < h.shape[-1]:
        return rho * _spectra(h)[:, :m].sum(axis=1)
    stat = rho * _trace(h)
    open_ = ~((np.abs(stat - b) > _trace_slack(h) * b) & (stat < np.inf))
    stat[open_] = rho * _spectra(h[open_]).sum(axis=1)
    return stat


def _mth_statistic(taps, rho, b, m):
    h = taps[:, 0]
    if m < h.shape[-1]:
        return rho * _spectra(h)[:, m - 1]
    stat = rho * _trace(h) / m
    open_ = ~((stat > (1.0 + _trace_slack(h)) * b) & (stat < np.inf))
    stat[open_] = rho * _spectra(h[open_])[:, m - 1]
    return stat


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
    returned curve estimates the decay exponent m (N - M + m).  The
    threshold b/rho falls along the grid, and with it the probability, so
    every point past the first capped one keeps only its block 0 and is
    reported as skipped unless that block meets the target.
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
    m (N - M + m).  Stopping, seeding and skipped points are as in
    `tail_sum_probability`.
    """
    return _tail_curve("min", _mth_statistic, M, N, m, b, rho_grid, policy,
                       master_seed, workers)
