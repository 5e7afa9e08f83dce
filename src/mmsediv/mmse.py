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

`transfer_function` (the per-bin DFT ``H(k)``) is the per-bin reference.
`selective_sinrs_oracle` is an independent time-domain cross-check of
both: it builds the explicit block-circulant channel operator itself and
inverts its regularized Gram matrix.  The package namespace leaves both
references out; import them from this module.

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
so `selective_capacity_batch` given ``rate=R`` makes two passes.  The
first, the screen, computes the stack in float32, one call per span of
two float64 chunks, as complex64 halves a realization's bytes.  It leaves
undecided each realization whose float32 capacity lies within its margin
of R, and every realization of a span whose float32 computation fails.
The second recomputes in float64, exactly as without a rate, each chunk
that holds an undecided realization.  The chunk, not the realization, is
the unit: a float64 capacity keeps its bits only in a call of its own
chunk (see `_capacity_chunk_size`).  The margin bounds ``|C32 - C64|``.
With ``A_k = I + c G(k)``, ``lambda_min(A_k) >= 1`` and
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

import functools
import itertools
import math
import warnings

import numpy as np

from .exceptions import (ConfigurationError, NumericalError, NumericalHealthWarning,
                         _require_integers)

__all__ = [
    "SCALING_CONVENTIONS",
    "numerical_health",
    "selective_capacity_batch",
    "selective_sinrs",
    "selective_sinrs_oracle",
]

SCALING_CONVENTIONS = ("per-tap", "paper")

ORACLE_SIZE_CAP = 512

_NEG_SINR_SLACK = -1e-12

# float32 unit roundoff, and the factor the screen's margin takes over
# its first-order error bound (module docstring)
_U32 = float(np.finfo(np.float32).eps) / 2
_SCREEN_FACTOR = 64

_clamps = 0


def numerical_health():
    """``{"clamped_beyond_slack": n}``: n SINRs fell below the roundoff
    slack and were clamped to zero.

    A Monte Carlo sweep adds the counts of the blocks it consumes, in
    whichever process they ran, so its total does not depend on the worker
    count (see `collect_health`).  Only the float64 pass of
    `selective_capacity_batch` counts: float32 roundoff in its screen can
    put an MSE past 1 by about 1e-7, which is no clamp.  A chunk that the
    screen leaves undecided is counted once, as without a rate; a chunk it
    decides adds nothing.
    """
    return {"clamped_beyond_slack": _clamps}


def collect_health(fn, *args):
    """Call ``fn(*args)`` on a fresh clamp count; return ``(result, clamps)``.

    The global count stays as it was and `NumericalHealthWarning` is held
    back; `merge_health` accounts for the returned clamps, possibly in
    another process.
    """
    global _clamps
    outer, _clamps = _clamps, 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalHealthWarning)
            return fn(*args), _clamps
    finally:
        _clamps = outer


def merge_health(clamps):
    """Add a clamp count returned by `collect_health`; warn again if nonzero."""
    global _clamps
    _clamps += clamps
    if clamps:
        warnings.warn(_clamp_warning(clamps), stacklevel=2)


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


def _inverse_diagonal(entries):
    """Diagonal of ``G^{-1}`` for Hermitian positive-definite G, in real arithmetic.

    ``entries`` is a real (M^2, ...) stack, one matrix per trailing element:
    each ``G_jj``, then Re and then Im of each ``G_jk``, j < k, in
    `np.triu_indices` order.  Overwrites it; returns ``entries[:M]``, the diagonals.

    Eliminating row j from the trailing rows factors ``G = U^H D U`` with
    rows ``w_j = D_j U_j`` and takes the Schur term ``|w_jk|^2 / D_j`` off
    pivot k.  With the scaled rows ``z_j = D_j (U^{-1})_j``, where
    ``z_{j,j+1} = -w_{j,j+1}`` reuses its Schur term,
    ``(G^{-1})_jj = (1 + sum_{k>j} (|z_jk|^2 / D_j) (1 / D_k)) / D_j``.
    At M = 2 that is ``d1 = 1/(c - |b|^2/a)``, ``d0 = (1 + (|b|^2/a) d1)/a``
    step for step, and ``1/D_0`` is taken only when D_0 is the last pivot.
    """
    m = math.isqrt(len(entries))
    pairs = list(itertools.combinations(range(m), 2))
    # views, 0-d ones too, so that `-=` writes into `entries`
    rows = [entries[r, ...] for r in range(len(entries))]
    piv, schur = rows[:m], {}
    re, im = dict(zip(pairs, rows[m:])), dict(zip(pairs, rows[m + len(pairs):]))
    for j in range(m):
        # two reductions refuse NaN, +inf and nonpositive pivots
        if not (piv[j].min() > 0.0 and piv[j].max() < np.inf):
            raise NumericalError("elimination hit a nonpositive or non-finite pivot")
        for i in range(j + 1, m):
            if m == 2:
                # nothing reads this pair's rows again: its term takes their place
                term = np.multiply(re[j, i], re[j, i], out=re[j, i])
                term += np.multiply(im[j, i], im[j, i], out=im[j, i])
                term /= piv[j]
            else:
                term = (re[j, i] * re[j, i] + im[j, i] * im[j, i]) / piv[j]
            piv[i] -= term
            # back-substitution reuses only the Schur term off the next pivot;
            # every other temporary is released as soon as it is used
            if i == j + 1:
                schur[j] = term
            del term
            if i + 1 < m:
                # G_ik -= conj(w_ji) w_jk / D_j right of pivot i
                ur, ui = re[j, i] / piv[j], im[j, i] / piv[j]
                for k in range(i + 1, m):
                    re[i, k] -= ur * re[j, k] + ui * im[j, k]
                    im[i, k] -= ur * im[j, k] - ui * re[j, k]
                del ur, ui
    recip = {k: 1.0 / piv[k] for k in range(1, m - 1)}
    recip[m - 1] = np.divide(1.0, piv[m - 1], out=piv[m - 1])
    for j in reversed(range(m - 1)):
        # entry (j, k) becomes -z_jk = w_jk - sum_l (w_jl / D_l) (-z_lk)
        scaled = {l: (re[j, l] * recip[l], im[j, l] * recip[l])
                  for l in range(j + 1, m - 1)}
        total = schur.pop(j)
        total *= recip[j + 1]
        for k in range(j + 2, m):
            for l in range(j + 1, k):
                (sr, si), zr, zi = scaled[l], re[l, k], im[l, k]
                re[j, k] -= sr * zr - si * zi
                im[j, k] -= sr * zi + si * zr
            total += (re[j, k] * re[j, k] + im[j, k] * im[j, k]) / piv[j] * recip[k]
        total += 1.0
        np.divide(total, piv[j], out=piv[j])
    return entries[:m]


def _sinrs_from_mse(mse):
    """1/mse - 1, clamped at zero; counts clamps beyond the roundoff slack."""
    global _clamps
    beta = 1.0 / mse - 1.0
    bad = int(np.count_nonzero(beta < _NEG_SINR_SLACK))
    if bad:
        _clamps += bad
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
    matrices, bin k holding ``sum_l taps[l] exp(-2i pi k l / K)``: the
    K-point FFT along the tap axis, which zero-pads the L taps.  K is
    checked first, as an FFT with K < L would truncate the taps.  The
    capacity path never forms these matrices (it works from the tap
    autocorrelation, see the module docstring); this function is the
    reference that per-bin checks of that path are built from.
    """
    taps = np.asarray(taps, dtype=complex)
    return np.fft.fft(taps, n=_check_block_length(taps.shape, n_bins), axis=-3)


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


@functools.lru_cache(maxsize=16)
def _bin_plan(n_taps, m, bins, real):
    """Constants of `_mse` for one shape, built once and read-only.

    Returns the (K, 2L-1) basis the lag coefficients are multiplied by, in
    the real dtype ``real``: row k holds 1, then ``cos(2 pi k d / K)`` and
    then ``sin(2 pi k d / K)`` for d = 1..L-1.  Then the diagonal and the
    upper-triangle indices of an M x M matrix.
    """
    angle = (2.0 * np.pi / bins) * (
        np.outer(np.arange(1, n_taps), np.arange(bins)) % bins)
    basis = np.concatenate([np.ones((1, bins)), np.cos(angle), np.sin(angle)])
    basis = basis.astype(real, copy=False)
    diag, upper = np.diag_indices(m), np.triu_indices(m, 1)
    for arr in (basis, *diag, *upper):
        arr.flags.writeable = False
    return basis.T, diag, upper


def _gram_coefficients(taps, c):
    """Coefficients of ``I + c G(k)`` against the basis of `_bin_plan`, (2L-1, M, M, n).

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


def _capacity_chunk_size(tap_shape, n_bins):
    """Realizations per `_mse` call that keep its temporaries near `_CHUNK_BYTES`.

    Bytes per realization of (L, N, M) taps over `_mse`'s bins (K, or one
    at L = 1): ``16 M max(bins M, 2 L N + N M + 2 L M)``.  The first term is
    twice the Gram entries, leaving as much again for the elimination (1024
    realizations at M = 2, L = 2, K = 64); the second the tap side: the
    contiguous and conjugated taps, one (N, M, M) lag product and two lag
    sums (384 B at M = N = 2, L = 1).  MSEs kept their bits across chunks of
    64 to 4096 realizations (six shapes, M = 1 to 8, L = 2 to 4); chunks of
    1 and 7 moved last bits, as the basis product takes another BLAS path.
    """
    n_taps, n_rx, m = tap_shape
    bins = n_bins if n_taps > 1 else 1
    per_trial = 16 * m * max(bins * m, 2 * n_taps * n_rx + n_rx * m + 2 * n_taps * m)
    return max(1, _CHUNK_BYTES // per_trial)


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
    basis_t, diag, upper = _bin_plan(n_taps, m, n_bins if n_taps > 1 else 1, real)
    # realizations last, as `_tap_autocorrelation` expects
    stack = taps.reshape(-1, n_taps, n_rx, m).transpose(1, 2, 3, 0)
    # (2L-1, M, M, n) coefficients to (M, M, 2L-1, n)
    coefs = _gram_coefficients(np.ascontiguousarray(stack), c).transpose(1, 2, 0, 3)
    rows = np.concatenate([coefs[diag].real, coefs[upper].real, coefs[upper].imag])
    del coefs  # freed before the product's output, the call's largest array
    # one batched product, (K, 2L-1) @ (M^2, 2L-1, n): an entry-major
    # (M^2, K, n) stack, each entry's rows contiguous for the elimination
    entries = basis_t @ rows
    del rows
    # in C order: a sum over M >= 8 streams takes another order on a transpose
    return _inverse_diagonal(entries).mean(axis=1).T.copy().reshape(*lead, m)


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
    """Float32 capacities of a span of (L, N, M) taps and their margins.

    Returns ``(capacity, margin)`` as float64 arrays, the capacities holding
    float32 values, with ``|capacity - C64| <= margin`` elementwise, where
    C64 is the float64 capacity (see the module docstring); the margin's
    bin count is the block length K, which is at least the number of bins
    `_mse` averages (one when L = 1).  When the float32 elimination refuses
    a pivot or a capacity is not finite, the span fails as a whole: every
    margin is infinite and the capacities are placeholders.
    """
    # cast while copying into the realizations-last layout `_mse` works in,
    # so that `_mse` takes the complex64 taps without a copy of its own
    taps32 = part.transpose(1, 2, 3, 0).astype(np.complex64, order="C")
    try:
        mse = _mse(taps32.transpose(3, 0, 1, 2), rho, n_bins, scaling)
    except NumericalError:
        return np.zeros(len(part)), np.full(len(part), np.inf)
    # log2(1 + SINR) with the SINR clamped at zero, summed column by column:
    # numpy's reduction over a short last axis costs 20 times as much
    cap = functools.reduce(np.add, np.log2(np.maximum(1.0 / mse, 1.0)).T)
    if not np.all(np.isfinite(cap)):
        return np.zeros(len(part)), np.full(len(part), np.inf)
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

    The call makes two passes.  Only with a ``rate`` is there a first, the
    float32 screen of the module docstring: one call per span of two
    chunks writes float32 capacities into the result, and a realization
    stays undecided when its capacity lies within its error margin of
    ``rate``.  A span whose float32 computation fails (refused pivot, NaN,
    inf) is undecided as a whole.  The second pass recomputes in float64,
    exactly as without a rate, every chunk that holds an undecided
    realization; without a rate every realization is undecided.  A float32
    capacity that is kept lies on the same side of ``rate`` as its float64
    capacity, so ``capacity < rate`` is the float64 decision for every
    realization, and a failure raises as it would without a rate.
    """
    taps = np.asarray(taps, dtype=complex)
    n_bins = _check_block_length(taps.shape, n_bins)
    *lead, n_taps, n_rx, m = taps.shape
    # rho and scaling are checked here too: an empty stack makes no `_mse` call
    noise_scaling(rho, m, n_taps, scaling)
    chunk = _capacity_chunk_size((n_taps, n_rx, m), n_bins)
    stack = taps.reshape(-1, n_taps, n_rx, m)
    cap = np.empty(len(stack))
    undecided = np.ones(len(stack), dtype=bool)
    if rate is not None:
        # complex64 halves a realization's bytes: one float32 call takes two chunks
        for lo in range(0, len(stack), 2 * chunk):
            span = slice(lo, lo + 2 * chunk)
            cap[span], margin = _float32_capacity(stack[span], rho, n_bins, scaling)
            # not `<=`: a NaN rate leaves every realization undecided
            undecided[span] = ~(np.abs(cap[span] - rate) > margin)
    for lo in range(0, len(stack), chunk):
        if not undecided[lo:lo + chunk].any():
            continue
        part = stack[lo:lo + chunk]
        try:
            mse = _mse(part, rho, n_bins, scaling)
        except NumericalError:
            # non-finite taps end in a failed pivot; finite ones pay no scan
            _check_finite(part, "channel taps")
            raise
        # np.sum, not column sums: from M = 8 on those add in another order
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
