"""Joint LMMSE stage coupling the signal x to its linear mixture w = H x.

Given pseudo-observations ``(r_x, v_x)`` on the signal side and ``(r_w, v_w)``
on the mixture side, the posterior of x is Gaussian with precision equal to
the sum of the two contributions, ``I / v_x + H^T H / v_w``.  Everything the
stage needs reduces to sums over the eigenvalues of ``H^T H``:

    sigma2(lam) = v_x * v_w / (v_w + v_x * lam)      posterior eigen-variances
    x_post      = U diag(sigma2) U^T (r_x / v_x + H^T r_w / v_w)
    w_post      = H x_post
    alpha_x     = mean( v_w / (v_w + v_x * lam) )
    v_post_w    = mean over M of lam * sigma2(lam)

so the eigendecomposition is computed once per matrix and every subsequent
call costs a few matrix-vector products, never a dense inversion.  Matrices
built from identical diagonal blocks decompose the block once and replicate
it, which is what keeps long block-diagonal channels cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .messages import DEFAULT_EPSILON, GaussianMessage, PosteriorSummary, clip_alpha


@dataclass(frozen=True)
class MixingMatrix:
    """A channel matrix with its cached gram eigendecomposition.

    ``eigenvalues`` are the N eigenvalues of ``H^T H`` clamped to be
    nonnegative.  For a dense matrix ``eigenvectors`` is the full N x N
    orthonormal basis; for a block-diagonal matrix (``block_size`` set) it is
    the shared B x B basis of one block and the eigenvalues are the block's
    values tiled across all blocks.  Immutable after construction and safe to
    share across threads.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    block_size: int | None = None

    @property
    def m(self):
        return self.entries.shape[0]

    @property
    def n(self):
        return self.entries.shape[1]

    @property
    def repeats(self):
        if self.block_size is None:
            return 1
        return self.n // self.block_size


def precompute(h, block_size=None) -> MixingMatrix:
    """Cache the eigendecomposition of ``H^T H`` for repeated LMMSE calls.

    With ``block_size=B`` the matrix must be square, built from identical
    B x B diagonal blocks with exact zeros elsewhere; the decomposition is
    then computed once on the block and replicated.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"H must be a 2-d matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("H contains non-finite entries")
    m, n = h.shape

    if block_size is None:
        lam, u = np.linalg.eigh(h.T @ h)
        lam = np.maximum(lam, 0.0)
        return MixingMatrix(h, lam, u)

    b = int(block_size)
    if m != n or n % b != 0:
        raise ValueError(f"block-diagonal matrix must be square with size divisible by {b}")
    repeats = n // b
    block = h[:b, :b]
    mask = np.zeros((n, n), dtype=bool)
    for r in range(repeats):
        sl = slice(r * b, (r + 1) * b)
        mask[sl, sl] = True
        if not np.array_equal(h[sl, sl], block):
            raise ValueError("block-diagonal matrix must repeat one identical block")
    if np.any(h[~mask] != 0.0):
        raise ValueError("entries outside the diagonal blocks must be exactly zero")
    lam_b, u_b = np.linalg.eigh(block.T @ block)
    lam_b = np.maximum(lam_b, 0.0)
    return MixingMatrix(h, np.tile(lam_b, repeats), u_b, block_size=b)


def _apply_posterior_basis(mix: MixingMatrix, scale, rhs):
    """Evaluate ``U diag(scale) U^T rhs`` using the cached basis."""
    if mix.block_size is None:
        return mix.eigenvectors @ (scale * (mix.eigenvectors.T @ rhs))
    b = mix.block_size
    u = mix.eigenvectors
    rhs_blocks = rhs.reshape(mix.repeats, b)
    scale_blocks = scale.reshape(mix.repeats, b)
    proj = rhs_blocks @ u  # row r holds U^T rhs_r
    return ((scale_blocks * proj) @ u.T).reshape(-1)


def coupling_posterior(
    rx: GaussianMessage,
    rw: GaussianMessage,
    mix: MixingMatrix,
    epsilon=DEFAULT_EPSILON,
) -> tuple[PosteriorSummary, PosteriorSummary]:
    """Joint posterior summaries of (x, w) under the constraint w = H x.

    Returns the x-side and w-side summaries.  ``w.mean`` equals ``H @ x.mean``
    exactly, and both Onsager coefficients come from the eigenvalue sums
    described in the module docstring (clipped into ``[eps, 1 - eps]``).
    """
    if len(rx) != mix.n:
        raise ValueError(f"r_x has length {len(rx)}, expected N={mix.n}")
    if len(rw) != mix.m:
        raise ValueError(f"r_w has length {len(rw)}, expected M={mix.m}")
    vx = rx.variance
    vw = rw.variance
    lam = mix.eigenvalues

    ratios = vw / (vw + vx * lam)
    sigma2 = vx * ratios  # posterior eigen-variances
    rhs = rx.mean / vx + mix.entries.T @ rw.mean / vw
    x_mean = _apply_posterior_basis(mix, sigma2, rhs)
    w_mean = mix.entries @ x_mean

    alpha_x_raw = float(np.mean(ratios))
    v_post_x = vx * alpha_x_raw
    v_post_w = float(np.sum(lam * sigma2) / mix.m)  # trace of H Sigma H^T without forming it
    alpha_w_raw = v_post_w / vw

    x_post = PosteriorSummary(x_mean, v_post_x, clip_alpha(alpha_x_raw, epsilon))
    w_post = PosteriorSummary(w_mean, v_post_w, clip_alpha(alpha_w_raw, epsilon))
    return x_post, w_post

