"""Exact per-stream MMSE SINR and capacity for MIMO channels.

The per-stream output MSE of the exact linear MMSE equalizer is the
diagonal of ``(I + c G)^{-1}`` with Gram matrix ``G = H^H H``, and the SINR
of stream j is ``1/mse_j - 1``.  For a cyclic-prefix frequency-selective
channel with N x M taps ``T_0, ..., T_{L-1}`` and block length K, the
per-stream MSE is the average over the K DFT bins of the diagonal of
``(I + c G(k))^{-1}``.  Only the per-bin Gram matrix enters, and it is a
short trigonometric sum over the tap autocorrelation (the circulant
structure of the cyclic-prefix channel)::

    G(k) = H(k)^H H(k) = sum_{|d| < L} R_d exp(-2i pi k d / K),
    R_d  = sum_l T_l^H T_{l+d},        R_{-d} = R_d^H.

The capacity path therefore computes the L lag matrices ``R_d`` once per
realization and turns them into per-bin Gram entries with one real matrix
product against a (2L-1, K) cosine/sine basis; the K per-bin channel
matrices ``H(k)`` are never formed.  Only the real entries of each
Hermitian ``G(k)`` are carried: the diagonal and the real and imaginary
parts of the upper triangle.  Flat
fading is the L = 1 case of this path and has no route of its own: the
only lag is ``R_0 = H^H H`` and every bin holds that Gram matrix, so the
path runs with a single bin.  The public API has no flat route either: a
flat (N, M) channel ``H`` is the one-tap stack ``H[None]`` of
`selective_sinrs` and `selective_capacity_batch`, with block length 1.

`transfer_function` (the per-bin DFT ``H(k)``) is kept as the public
per-bin reference.  `selective_sinrs_oracle` is an independent
time-domain cross-check of both: it builds the explicit block-circulant
channel operator itself and inverts its regularized Gram matrix.

Two conventions for the scaling constant ``c`` in ``I + c H^H H`` are
supported for selective channels: ``"per-tap"`` uses ``rho / (M * L)``
(transmit power split across antennas and taps, consistent with a
unit-average-power input) and ``"paper"`` uses ``rho / M``.  Both coincide
for one tap.  Rescaling rho by a constant shifts outage curves
horizontally and leaves fitted diversity slopes unchanged, so the choice
does not affect diversity results.

Every diagonal of an inverse, for every M, comes from one elimination in
real arithmetic (`_inverse_diagonal`): it factors ``G = U^H D U`` and sums
the scaled rows of ``U^{-1}`` against the reciprocal pivots; no
cofactor/adjugate inversion is used anywhere on the primary path.  The
path is dtype-generic: complex64 taps run every step in float32.

An outage count asks only which side of a rate R each capacity lies on,
so `selective_capacity_batch` given ``rate=R`` screens each chunk in
float32 first and keeps those capacities when each lies farther from R
than its margin; any other chunk is recomputed in float64 exactly as
without a rate.  The margin bounds ``|C32 - C64|``.  With
``A_k = I + c G(k)``, ``lambda_min(A_k) >= 1`` and
``||A_k|| <= 1 + c ||H(k)||_F^2 <= kappa = 1 + c L tr R_0``, since
``||H(k)||_F <= sum_l ||T_l||_F``; so ``kappa`` bounds the condition
number of every bin.  Forming ``A_k`` and eliminating it in float32 is
exact for some ``A_k + E`` with ``||E|| <= g u kappa`` (u = 2^-24; the
elimination is backward stable, Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 2002, ch. 10; g a modest constant of M,
N and L).  As ``lambda_min(A_k) >= 1``,
``|e_j' A^-1 E A^-1 e_j| <= ||A^-1 e_j||^2 ||E|| <= (A^-1)_jj ||E||``:
each per-bin MSE moves by a relative ``g u kappa`` at most.  The float32
mean of K positive terms adds a relative ``K u``, and a relative MSE
error e moves ``log2(1 + SINR_j)`` by at most ``e / ln 2``, clamp
included.  Over M streams, ``|C32 - C64| <= M u (g kappa + K) / ln 2``
to first order (float64's own error is 2^-29 of that); the margin is
``64 M u (kappa + K)``, fixed from this bound and checked by a property
test over extreme SNR and near-singular and rescaled taps.  A trial with
``|C32 - R|`` above its margin is therefore on float64's side of R.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .exceptions import (ConfigurationError, NumericalError, NumericalHealthWarning,
                         _require_integers)

__all__ = [
    "SCALING_CONVENTIONS",
    "collect_health",
    "merge_health",
    "numerical_health",
    "selective_capacity_batch",
    "selective_sinrs",
    "selective_sinrs_oracle",
    "transfer_function",
]

SCALING_CONVENTIONS = ("per-tap", "paper")

ORACLE_SIZE_CAP = 512

_NEG_SINR_SLACK = -1e-12

# float32 unit roundoff, and the factor the screen's margin takes over
# its first-order error bound (module docstring)
_U32 = float(np.finfo(np.float32).eps) / 2
_SCREEN_FACTOR = 64

_health = {"evaluations": 0, "clamped_beyond_slack": 0}


def numerical_health():
    """Counters of SINR evaluations and clamps beyond the roundoff slack.

    A Monte Carlo sweep adds the counters of the blocks it consumes, in
    whichever process they ran, so its totals do not depend on the worker
    count (see `collect_health`).  A realization that the float32 screen
    of `selective_capacity_batch` decides adds its M SINRs to
    ``evaluations`` and nothing to ``clamped_beyond_slack``: float32
    roundoff can put an MSE past 1 by about 1e-7, which is no clamp.  A
    chunk that falls back to float64 is counted once, as without a rate.
    """
    return dict(_health)


def collect_health(fn, *args):
    """Call ``fn(*args)`` on fresh counters; return ``(result, counters)``.

    The global counters stay as they were and `NumericalHealthWarning` is
    held back; `merge_health` accounts for the returned counters, possibly
    in another process.
    """
    global _health
    outer = _health
    _health = dict.fromkeys(outer, 0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalHealthWarning)
            return fn(*args), _health
    finally:
        _health = outer


def merge_health(counters):
    """Add counters returned by `collect_health`; warn again about their clamps."""
    for key, value in counters.items():
        _health[key] += value
    if counters["clamped_beyond_slack"]:
        warnings.warn(_clamp_warning(counters["clamped_beyond_slack"]), stacklevel=2)


def _clamp_warning(count):
    return NumericalHealthWarning(
        f"{count} SINR value(s) below the {_NEG_SINR_SLACK} roundoff slack "
        "were clamped to zero")


def noise_scaling(rho, n_streams, n_taps=1, scaling="per-tap"):
    """Scaling constant c in the regularized Gram matrix I + c H^H H."""
    if not np.isfinite(rho) or rho <= 0.0:
        raise ConfigurationError(f"rho must be positive and finite, got {rho}")
    if scaling == "per-tap":
        return rho / (n_streams * n_taps)
    if scaling == "paper":
        return rho / n_streams
    raise ConfigurationError(
        f"unknown scaling convention {scaling!r}; expected one of {SCALING_CONVENTIONS}")


def _inverse_diagonal(diag, upper):
    """Diagonal of ``G^{-1}`` for Hermitian positive-definite G, in real arithmetic.

    ``diag[j]`` is ``G_jj`` and ``upper`` the real, then the imaginary
    parts of ``G_jk``, j < k, in `np.triu_indices` order: real arrays of
    one shape, one matrix per element.  Returns the list of M diagonals.

    Eliminating row j from the trailing rows factors ``G = U^H D U`` with
    rows ``w_j = D_j U_j`` and takes the Schur term ``|w_jk|^2 / D_j`` off
    pivot k.  With the scaled rows ``z_j = D_j (U^{-1})_j``, where
    ``z_{j,j+1} = -w_{j,j+1}`` reuses its Schur term,
    ``(G^{-1})_jj = (1 + sum_{k>j} (|z_jk|^2 / D_j) (1 / D_k)) / D_j``.
    At M = 2 that is ``d1 = 1/(c - |b|^2/a)``, ``d0 = (1 + (|b|^2/a) d1)/a``
    step for step, and ``1/D_0`` is taken only when D_0 is the last pivot.
    """
    m = len(diag)
    pairs = list(itertools.combinations(range(m), 2))
    re = dict(zip(pairs, upper[:len(pairs)]))
    im = dict(zip(pairs, upper[len(pairs):]))
    piv, schur = list(diag), {}
    for j in range(m):
        # two reductions refuse NaN, +inf and nonpositive pivots; skipped when empty
        if piv[j].size and not (piv[j].min() > 0.0 and piv[j].max() < np.inf):
            raise NumericalError("elimination hit a nonpositive or non-finite pivot")
        for i in range(j + 1, m):
            schur[j, i] = (re[j, i] * re[j, i] + im[j, i] * im[j, i]) / piv[j]
            piv[i] = piv[i] - schur[j, i]
            if i + 1 < m:
                # G_ik -= conj(w_ji) w_jk / D_j right of pivot i
                ur, ui = re[j, i] / piv[j], im[j, i] / piv[j]
                for k in range(i + 1, m):
                    re[i, k] = re[i, k] - (ur * re[j, k] + ui * im[j, k])
                    im[i, k] = im[i, k] - (ur * im[j, k] - ui * re[j, k])
    recip = {k: 1.0 / piv[k] for k in range(min(1, m - 1), m)}
    out = [None] * (m - 1) + [recip[m - 1]]
    for j in reversed(range(m - 1)):
        # entry (j, k) becomes -z_jk = w_jk - sum_l (w_jl / D_l) (-z_lk)
        scaled = {l: (re[j, l] * recip[l], im[j, l] * recip[l])
                  for l in range(j + 1, m - 1)}
        total = schur[j, j + 1] * recip[j + 1]
        for k in range(j + 2, m):
            for l in range(j + 1, k):
                (sr, si), zr, zi = scaled[l], re[l, k], im[l, k]
                re[j, k] = re[j, k] - (sr * zr - si * zi)
                im[j, k] = im[j, k] - (sr * zi + si * zr)
            total += (re[j, k] * re[j, k] + im[j, k] * im[j, k]) / piv[j] * recip[k]
        # in place, like numpy's elided temporaries: a fresh array cost ~4 % trials/s
        total += 1.0
        total /= piv[j]
        out[j] = total
    return out


def _sinrs_from_mse(mse):
    """1/mse - 1, clamped at zero; counts clamps beyond the roundoff slack."""
    beta = 1.0 / mse - 1.0
    _health["evaluations"] += beta.size
    bad = int(np.count_nonzero(beta < _NEG_SINR_SLACK))
    if bad:
        _health["clamped_beyond_slack"] += bad
        warnings.warn(_clamp_warning(bad), stacklevel=3)
    return np.maximum(beta, 0.0)


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")


def _single_taps(taps):
    """Finite (L, N, M) taps as a complex array."""
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 3:
        raise ValueError(f"expected taps of shape (L, N, M), got {taps.shape}")
    _check_finite(taps, "channel taps")
    return taps


def _check_block_length(tap_shape, n_bins):
    """Block length K as an int, at least L, for (..., L, N, M) taps with
    L, N, M >= 1 (an empty leading stack passes)."""
    if len(tap_shape) < 3 or 0 in tap_shape[-3:]:
        raise ConfigurationError(
            f"taps need shape (..., L, N, M) with L, N, M >= 1, got {tap_shape}")
    _require_integers(K=n_bins)
    if n_bins < tap_shape[-3]:
        raise ConfigurationError(f"block length K={n_bins} must be at least "
                                 f"the tap count L={tap_shape[-3]}")
    return int(n_bins)


def transfer_function(taps, n_bins):
    """Entrywise DFT of the zero-padded tap sequence: the per-bin reference.

    Maps (..., L, N, M) tap stacks to (..., K, N, M) per-bin channel
    matrices, bin k holding ``sum_l taps[l] exp(-2i pi k l / K)``.  Direct
    summation over the L taps; L is small in every intended use.  The
    capacity path never forms these matrices (it works from the tap
    autocorrelation, see the module docstring); this function is the
    reference that per-bin checks of that path are built from.
    """
    taps = np.asarray(taps, dtype=complex)
    n_bins = _check_block_length(taps.shape, n_bins)
    n_taps = taps.shape[-3]
    grid = np.outer(np.arange(n_taps), np.arange(n_bins))
    twiddle = np.exp(-2j * np.pi * grid / n_bins)
    lead = taps.shape[:-3]
    n_rx, n_tx = taps.shape[-2:]
    flat = taps.reshape(*lead, n_taps, n_rx * n_tx)
    # single GEMM over the tap axis, then bins moved ahead of the entries
    out = np.tensordot(flat, twiddle, axes=([-2], [0]))
    out = np.moveaxis(out, -1, -2)
    return out.reshape(*lead, n_bins, n_rx, n_tx)


def _tap_autocorrelation(taps):
    """Lags ``R_d = sum_l T_l^H T_{l+d}``, d = 0..L-1, of (L, N, M, n) taps.

    Realizations run along the last axis, so every product is a
    contiguous length-n vector operation; the lags are stacked (L, M, M, n).
    """
    n_taps, _, m, n = taps.shape
    conj = taps.conj()
    # summed in place: a fresh array per partial sum, at the same peak of
    # live bytes, left flat Monte Carlo workers with ~2 MB more resident
    lags = np.zeros((n_taps, m, m, n), dtype=taps.dtype)
    for d in range(n_taps):
        for l in range(n_taps - d):
            lags[d] += (conj[l, :, :, None] * taps[l + d, :, None, :]).sum(axis=0)
    return lags


def _bin_basis(n_taps, n_bins):
    """(2L-1, K) basis: ones, then cos and sin of 2 pi k d / K for d = 1..L-1."""
    angle = (2.0 * np.pi / n_bins) * (
        np.outer(np.arange(1, n_taps), np.arange(n_bins)) % n_bins)
    return np.concatenate([np.ones((1, n_bins)), np.cos(angle), np.sin(angle)])


def _gram_coefficients(taps, c):
    """Coefficients of ``I + c G(k)`` against `_bin_basis`, shape (2L-1, M, M, n).

    With ``R_{-d} = R_d^H`` the lag pair d, -d contributes
    ``(R_d + R_d^H) cos(2 pi k d / K) - i (R_d - R_d^H) sin(2 pi k d / K)``,
    so every coefficient matrix is Hermitian.
    """
    lags = _tap_autocorrelation(taps)
    tail = lags[1:]
    tail_h = tail.conj().swapaxes(1, 2)
    coefs = np.concatenate([lags[:1], tail + tail_h, -1j * (tail - tail_h)])
    coefs *= c
    diag = np.arange(taps.shape[2])
    coefs[0, diag, diag] += 1.0
    return coefs


_CHUNK_BYTES = 4 * 2**20
_MAX_CHUNK = 65536


def _capacity_chunk_size(tap_shape, n_bins):
    """Realizations per `_mse` call that keep its temporaries near `_CHUNK_BYTES`.

    Bytes per realization of (L, N, M) taps: for L > 1 twice the GEMM
    output of ``8 K M^2`` real bytes, which leaves as much again for the
    elimination's temporaries (1024 realizations at M = 2, K = 64); for one
    bin the tap side, ``16 (2 N M + N M^2 + 2 M^2)``: the contiguous and
    conjugated taps, one (N, M, M) lag product and two lag sums, the
    measured peak of a flat call (384 at M = N = 2).  The L > 1 rule must
    not move: the chunk decides which basis-GEMM columns hold a
    realization, and so the last bits of its capacity.
    """
    n_taps, n_rx, m = tap_shape
    if n_taps > 1:
        per_trial = 16 * n_bins * m * m
    else:
        per_trial = 16 * (2 * n_rx * m + n_rx * m * m + 2 * m * m)
    return max(1, min(_MAX_CHUNK, _CHUNK_BYTES // per_trial))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _mse(taps, rho, n_bins=1, scaling="per-tap"):
    """Per-stream MMSE MSE of (..., L, N, M) tap stacks, averaged over K bins.

    The per-bin Gram entries come from the lag coefficients by one product
    with the (2L-1, K) basis, in the rows `_inverse_diagonal` reads: each
    ``G_jj``, then Re and then Im of each ``G_jk``, j < k.  There is no
    flat route: L = 1 is the one-bin case, as every bin holds
    ``R_0 = H^H H``, and its basis ``[[1.0]]`` makes the product exact.
    Every step runs in the precision of the taps: complex128 or complex64.

    Floating-point warnings are silenced: every entry feeds some pivot's
    Schur term, so an overflow or NaN anywhere ends in a refused pivot.
    """
    n_bins = _check_block_length(taps.shape, n_bins)
    *lead, n_taps, n_rx, m = taps.shape
    real = taps.real.dtype
    # in the taps' precision: a float64 c would promote complex64 products
    c = real.type(noise_scaling(rho, m, n_taps, scaling))
    bins = n_bins if n_taps > 1 else 1
    # realizations last, as `_tap_autocorrelation` expects
    stack = np.moveaxis(taps.reshape(-1, n_taps, n_rx, m), 0, -1)
    coefs = _gram_coefficients(np.ascontiguousarray(stack), c)
    basis = _bin_basis(n_taps, bins).astype(real, copy=False)
    pairs = list(itertools.combinations(range(m), 2))
    rows = ([coefs[:, j, j].real for j in range(m)]
            + [coefs[:, j, k].real for j, k in pairs]
            + [coefs[:, j, k].imag for j, k in pairs])
    # one GEMM for every entry and realization: (K, 2L-1) @ (2L-1, M^2 n)
    entries = basis.T @ np.stack(rows, axis=1).reshape(len(basis), -1)
    entries = np.moveaxis(entries.reshape(bins, m * m, -1), 1, 0)
    inv_diag = _inverse_diagonal(entries[:m], entries[m:])
    return np.stack([d.mean(axis=0) for d in inv_diag], axis=-1).reshape(*lead, m)


def selective_sinrs(taps, rho, n_bins, scaling="per-tap"):
    """Per-stream MMSE SINRs for a cyclic-prefix frequency-selective channel.

    Parameters
    ----------
    taps : (L, N, M) complex array
        Channel tap matrices, tap index first.
    rho : float
        SNR (linear, > 0).
    n_bins : int
        Block length K (number of DFT bins); must satisfy K >= L.
    scaling : {"per-tap", "paper"}
        Convention for the constant c in I + c H^H H (see module docstring).

    Returns
    -------
    (M,) float array of nonnegative SINRs: beta_j = 1 / mean_k mse_j(k) - 1.
    """
    taps = _single_taps(taps)
    return _sinrs_from_mse(_mse(taps, rho, n_bins, scaling))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _float32_capacity(part, rho, n_bins, scaling):
    """Float32 capacities of a chunk of (L, N, M) taps and their margins.

    Returns ``(capacity, margin)`` as float64 arrays, the capacities holding
    float32 values, or None when the float32 elimination refuses a pivot or
    a capacity is not finite.  ``|capacity - C64| <= margin`` elementwise,
    where C64 is the float64 capacity (see the module docstring); the
    margin's bin count is the block length K, which is at least the number
    of bins `_mse` averages (one when L = 1).
    """
    try:
        mse = _mse(part.astype(np.complex64), rho, n_bins, scaling)
    except NumericalError:
        return None
    # log2(1 + SINR) with the SINR clamped at zero
    cap = np.sum(np.log2(np.maximum(1.0 / mse, 1.0)), axis=-1)
    if not np.all(np.isfinite(cap)):
        return None
    n_taps, _, m = part.shape[-3:]
    # c L tr R_0 = c L ||T||_F^2 bounds c ||H(k)||_F^2 in every bin
    re_im = np.ascontiguousarray(part).reshape(len(part), -1).view(np.float64)
    load = noise_scaling(rho, m, n_taps, scaling) * n_taps * np.einsum(
        "ij,ij->i", re_im, re_im)
    return cap.astype(np.float64), _SCREEN_FACTOR * m * _U32 * (1.0 + load + n_bins)


def selective_capacity_batch(taps, rho, n_bins, scaling="per-tap", *, rate=None):
    """MMSE capacity (bits/s/Hz) of each realization in a (..., L, N, M) stack.

    Returns an array of the leading shape ``...``.  The stack is walked in
    chunks of `_capacity_chunk_size` realizations, so beyond the input and
    the result the call holds about `_CHUNK_BYTES` of temporaries, however
    many realizations it gets.  A stack of at most one chunk is one `_mse`
    call, and a longer one gives the capacities of its chunk-sized calls.
    Non-finite taps raise `ValueError`, as in `selective_sinrs`, once the
    elimination of their chunk has failed.

    With a ``rate``, each chunk is first computed in float32 (the screen
    of the module docstring).  A chunk whose every float32 capacity lies
    farther from ``rate`` than its error margin returns those float32
    values, each on the same side of ``rate`` as its float64 capacity;
    any other chunk returns exactly the float64 capacities it returns
    without a rate.  So ``capacity < rate`` is the float64 decision for
    every realization.  A float32 failure (refused pivot, NaN, inf) only
    sends its chunk to float64, which raises as it would without a rate.
    """
    taps = np.asarray(taps, dtype=complex)
    n_bins = _check_block_length(taps.shape, n_bins)
    *lead, n_taps, n_rx, m = taps.shape
    noise_scaling(rho, m, n_taps, scaling)  # refused here, not in the screen
    chunk = _capacity_chunk_size((n_taps, n_rx, m), n_bins)
    stack = taps.reshape(-1, n_taps, n_rx, m)
    cap = np.empty(len(stack))
    # at least one call, so that an empty stack has its arguments checked too
    for lo in range(0, max(len(stack), 1), chunk):
        part = stack[lo:lo + chunk]
        screen = None if rate is None else _float32_capacity(part, rho, n_bins, scaling)
        if screen is not None and np.all(np.abs(screen[0] - rate) > screen[1]):
            # counted as evaluated; float32 roundoff past 1 is not a clamp
            _health["evaluations"] += part.shape[0] * m
            cap[lo:lo + chunk] = screen[0]
            continue
        try:
            mse = _mse(part, rho, n_bins, scaling)
        except NumericalError:
            # non-finite taps end in a failed pivot; finite ones pay no scan
            _check_finite(part, "channel taps")
            raise
        cap[lo:lo + chunk] = np.sum(np.log2(1.0 + _sinrs_from_mse(mse)), axis=-1)
    # [()] returns a single realization's capacity as a scalar, as a sum does
    return cap.reshape(lead)[()]


def selective_sinrs_oracle(taps, rho, n_bins, scaling="per-tap"):
    """Time-domain MMSE SINRs on the explicit block-circulant operator.

    Independent cross-check of `selective_sinrs`: builds the (K*N, K*M)
    channel operator of a cyclic-prefix block, whose (t, s) block is tap
    ``(t - s) mod K`` (zero for lags >= L), inverts the regularized
    time-domain Gram matrix directly, and averages the diagonal over the K
    time slots of each stream.  Cost is O((K*M)^3); inputs are capped at
    K*M <= 512.
    """
    taps = _single_taps(taps)
    n_bins = _check_block_length(taps.shape, n_bins)
    n_taps, n_rx, n_tx = taps.shape
    if n_bins * n_tx > ORACLE_SIZE_CAP:
        raise ConfigurationError(
            f"oracle size cap exceeded: K*M = {n_bins * n_tx} > {ORACLE_SIZE_CAP}")
    padded = np.concatenate([taps, np.zeros((n_bins - n_taps, n_rx, n_tx))])
    lag = np.subtract.outer(np.arange(n_bins), np.arange(n_bins)) % n_bins
    op = padded[lag].swapaxes(1, 2).reshape(n_bins * n_rx, n_bins * n_tx)
    c = noise_scaling(rho, n_tx, n_taps, scaling)
    gram = np.eye(n_bins * n_tx) + c * (op.conj().T @ op)
    inv = np.linalg.inv(gram)
    mse = np.real(np.diag(inv)).reshape(n_bins, n_tx).mean(axis=0)
    return _sinrs_from_mse(mse)
