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
call costs a few matrix-vector products, never a dense inversion.  Every
matrix is one block repeated on the diagonal, ``H = I_R ⊗ A`` (dense is
``R = 1``), whose gram has the basis ``I_R ⊗ U`` with U that of ``A^T A``:
only A and U are held, and each product with H is R products with A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .messages import GaussianMessage, PosteriorSummary


@dataclass(frozen=True)
class MixingMatrix:
    """The channel matrix ``H = I_R ⊗ A`` with its cached gram eigendecomposition.

    ``block`` is ``A`` (m_b x n_b) and ``repeats`` is R, so H is
    ``R m_b x R n_b``; a dense matrix has ``repeats == 1``.  ``eigenvalues``
    are the N eigenvalues of ``H^T H`` clamped to be nonnegative, which are
    the block's values tiled R times; ``eigenvectors`` is the n_b x n_b
    orthonormal basis of ``A^T A``.  Immutable after construction and safe to
    share across threads.
    """

    block: np.ndarray
    repeats: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def m(self):
        return self.repeats * self.block.shape[0]

    @property
    def n(self):
        return self.repeats * self.block.shape[1]

    def apply(self, x):
        """``H x``, one matrix-vector product per block.

        The R parts go in as a stack of column vectors, so each is its own
        product ``A @ x_r`` and bit-identical to it; the single matrix product
        ``x.reshape(R, -1) @ A.T`` sums in another order.
        """
        return (self.block @ np.reshape(x, (self.repeats, -1, 1))).reshape(-1)

    def apply_t(self, w):
        """``H^T w``, one matrix-vector product per block."""
        return (self.block.T @ np.reshape(w, (self.repeats, -1, 1))).reshape(-1)


def precompute(block, repeats=1) -> MixingMatrix:
    """Cache the eigendecomposition of ``H^T H`` for ``H = I_R ⊗ block``.

    One ``eigh`` of the block's gram serves every repeat; the default
    ``repeats=1`` makes ``block`` the whole (dense) matrix.
    """
    a = np.asarray(block, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"H must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("H contains non-finite entries")
    r = int(repeats)
    if r < 1:
        raise ValueError(f"repeat count must be at least 1, got {repeats}")
    lam, u = np.linalg.eigh(a.T @ a)
    lam = np.maximum(lam, 0.0)
    return MixingMatrix(a, r, np.tile(lam, r), u)


def _apply_posterior_basis(mix: MixingMatrix, scale, rhs):
    """Evaluate ``(I_R ⊗ U) diag(scale) (I_R ⊗ U)^T rhs`` with the cached basis."""
    u = mix.eigenvectors
    shape = (mix.repeats, u.shape[0])
    proj = rhs.reshape(shape) @ u  # row r holds U^T rhs_r
    return ((scale.reshape(shape) * proj) @ u.T).reshape(-1)


def coupling_posterior(
    rx: GaussianMessage, rw: GaussianMessage, mix: MixingMatrix
) -> tuple[PosteriorSummary, PosteriorSummary]:
    """Joint posterior summaries of (x, w) under the constraint w = H x.

    Returns the x-side and w-side summaries.  ``w.mean`` equals ``H @ x.mean``
    exactly, and both Onsager coefficients are the raw eigenvalue sums
    described in the module docstring.
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
    rhs = rx.mean / vx + mix.apply_t(rw.mean) / vw
    x_mean = _apply_posterior_basis(mix, sigma2, rhs)
    w_mean = mix.apply(x_mean)

    alpha_x = float(np.mean(ratios))
    v_post_w = float(np.sum(lam * sigma2) / mix.m)  # trace of H Sigma H^T without forming it
    x_post = PosteriorSummary(x_mean, vx * alpha_x, alpha_x)
    w_post = PosteriorSummary(w_mean, v_post_w, v_post_w / vw)
    return x_post, w_post
