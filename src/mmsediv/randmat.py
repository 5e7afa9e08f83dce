"""Random-matrix sampling: complex Gaussian ensembles and Haar unitaries.

Provides the channel sampler (i.i.d. circularly-symmetric complex Gaussian
entries), a recursive angular construction of Haar-distributed unitary
matrices (diagonal phase matrices interleaved with chains of Givens
rotations), and two references that cross-validate the recursion: an
independent QR-based Haar sampler and a unitarity residual.  The package
namespace leaves the references out; import them from this module.

All samplers are pure functions of an explicit ``numpy.random.Generator``;
none of them keeps internal state.  For reproducible parallel use, derive
one generator per unit of work from a master seed with `derive_stream`.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigurationError, _require_integers

__all__ = [
    "derive_stream",
    "sample_complex_gaussian",
    "sample_haar_qr_oracle",
    "sample_haar_recursive",
    "unitarity_residual",
]

_TWO_PI = 2.0 * np.pi


def derive_stream(master_seed, *key):
    """Deterministic child generator for a (master seed, index, ...) key.

    Equal arguments always yield identically seeded generators, so work
    split across threads or processes stays reproducible as long as each
    unit of work owns a distinct key.  The seed and every key part must
    be non-negative integers, numpy's too.
    """
    parts = {"master_seed": master_seed,
             **{f"key[{i}]": k for i, k in enumerate(key)}}
    _require_integers(**parts)
    for name, value in parts.items():
        if value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)


def _complex_gaussian(shape, rng):
    """CN(0, 1) array, real parts drawn first, peaking at 1.5 outputs."""
    z = np.empty(shape, dtype=complex)
    for part in (z.real, z.imag):
        np.multiply(rng.standard_normal(shape), np.sqrt(0.5), out=part)
    return z


def sample_complex_gaussian(rows, cols, rng, size=None):
    """Matrix with i.i.d. CN(0,1) entries (unit complex variance).

    Real and imaginary parts are independent zero-mean Gaussians with
    variance 1/2 each.  With ``size`` given (an int or tuple), a stack of
    independent matrices with that leading shape is returned.
    """
    _require_integers(rows=rows, cols=cols)
    if rows < 1 or cols < 1:
        raise ConfigurationError(
            f"matrix dimensions must be positive, got {rows}x{cols}")
    if size is None:
        size = ()
    elif np.isscalar(size):
        size = (size,)
    for n in size:
        _require_integers(size=n)
    return _complex_gaussian((*size, rows, cols), rng)


def _draw_angle_arrays(order, rng, batch):
    """Draw batched phases/angles, level by level, in a fixed order.

    cos^2(theta_i) ~ Beta(1, n - i) at a level of order n: that is the law
    that makes the phased first column of the level uniform on the complex
    unit sphere, which the recursion requires.
    """
    phases = []
    angles = []
    for j in range(order):
        n = order - j
        phases.append(rng.uniform(0.0, _TWO_PI, size=(batch, n)))
        # the order-1 level takes the empty (batch, 0) array
        level = np.empty((batch, n - 1))
        for i in range(1, n):
            level[:, i - 1] = np.arccos(np.sqrt(rng.beta(1.0, float(n - i), size=batch)))
        angles.append(level)
    return phases, angles


def _build_unitaries(phases, angles):
    """Assemble (batch, order, order) unitaries from batched level arrays."""
    order = phases[0].shape[1]
    batch = phases[0].shape[0]
    u = np.exp(1j * phases[order - 1])[:, :, None]
    for j in range(order - 2, -1, -1):
        n = order - j
        w = np.zeros((batch, n, n), dtype=complex)
        w[:, 0, 0] = 1.0
        w[:, 1:, 1:] = u
        th = angles[j]
        for i in range(n - 1):
            # plane rotation on axes (i+1, i+2), 1-based; innermost first
            c = np.cos(th[:, i])[:, None]
            s = np.sin(th[:, i])[:, None]
            top = w[:, i, :].copy()
            bot = w[:, i + 1, :]
            w[:, i, :] = c * top - s * bot
            w[:, i + 1, :] = s * top + c * bot
        u = np.exp(1j * phases[j])[:, :, None] * w
    return u


def _haar_batch(order, size):
    """Checks a Haar sampler's order and ``size``; returns its batch size."""
    batch = 1 if size is None else size
    _require_integers(order=order, size=batch)
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    return batch


def sample_haar_recursive(order, rng, size=None):
    """Haar-distributed unitary built by the recursive angular construction.

    Each recursion level multiplies a diagonal matrix of uniform phases by
    a chain of Givens rotations and embeds the previous level as the
    trailing block.  The rotation angle ``theta_i`` at a level of order
    ``n`` is drawn so that ``cos^2(theta_i) ~ Beta(1, n - i)``.  With
    ``size`` given, a stack of independent draws is returned.
    """
    batch = _haar_batch(order, size)
    phases, angles = _draw_angle_arrays(order, rng, batch)
    u = _build_unitaries(phases, angles)
    return u[0] if size is None else u


def sample_haar_qr_oracle(order, rng, size=None):
    """Haar unitary obtained by orthonormalizing a complex Gaussian matrix.

    The unitary QR factor is phase-corrected so that the triangular factor
    has a real positive diagonal; without that correction the factorization
    is not unique and the factor is not Haar.
    """
    batch = _haar_batch(order, size)
    z = _complex_gaussian((batch, order, order), rng)
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    q = q * (d / np.abs(d))[..., None, :]
    return q[0] if size is None else q


def unitarity_residual(u):
    """Entrywise max of ``|U* U - I|``; stacked inputs reduce over the stack."""
    u = np.asarray(u)
    n = u.shape[-1]
    g = np.einsum("...ji,...jk->...ik", u.conj(), u) - np.eye(n)
    return float(np.max(np.abs(g)))
