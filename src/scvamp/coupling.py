"""Joint LMMSE stage coupling the signal x to its linear mixture w = H x.

Given pseudo-observations ``(r_x, v_x)`` on the signal side and ``(r_w, v_w)``
on the mixture side, the posterior of x is Gaussian with precision equal to
the sum of the two contributions, ``I / v_x + H^T H / v_w``.  Everything the
stage needs reduces to sums over the N eigenvalues lam of ``H^T H``:

    sigma2(lam) = v_x * v_w / (v_w + v_x * lam)      posterior eigen-variances
    w_post      = H x_post
    alpha_x     = mean( v_w / (v_w + v_x * lam) )
    v_post_w    = mean over M of lam * sigma2(lam)

so the eigendecomposition is computed once per matrix and every subsequent
call costs a few matrix-vector products, never a dense inversion.  Every
matrix is one block repeated on the diagonal, ``H = I_R ⊗ A`` (dense is
``R = 1``), and only A and the basis U of the block's smaller gram are held;
each product with H is R products with A.  A square or tall block (m_b >= n_b)
decomposes ``A^T A`` and forms the x mean as

    x_post      = (I_R ⊗ U) diag(sigma2) (I_R ⊗ U)^T (r_x / v_x + H^T r_w / v_w)

A wide block (m_b < n_b) decomposes the smaller ``A A^T``, whose m_b
eigenvalues are those of ``A^T A`` that can be nonzero, and forms the x mean
in residual form, which cancels no large terms however small v_w is:

    x_post      = r_x + v_x H^T (I_R ⊗ U) diag(1 / (v_w + v_x * lam_M))
                  (I_R ⊗ U)^T (r_w - H r_x)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .messages import GaussianMessage, PosteriorSummary


@dataclass(frozen=True)
class MixingMatrix:
    """The channel matrix ``H = I_R ⊗ A`` with its cached gram eigendecomposition.

    ``block`` is ``A`` (m_b x n_b) and ``repeats`` is R, so H is
    ``R m_b x R n_b``; a dense matrix has ``repeats == 1``.  ``eigenvectors``
    is the orthonormal basis U of the block's smaller gram: ``A^T A``
    (n_b x n_b) when m_b >= n_b, else ``A A^T`` (m_b x m_b).  ``eigenvalues``
    is N long: the block's n_b eigenvalues of ``A^T A`` clamped to be
    nonnegative, tiled R times; a wide block's n_b are U's m_b values followed
    by n_b - m_b exact zeros.  Immutable after construction and safe to share
    across threads.
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
    """Cache the gram eigendecomposition of ``H = I_R ⊗ block``.

    One ``eigh`` of the block's smaller gram serves every repeat: ``A^T A``
    for a square or tall block, ``A A^T`` for a wide one, whose n_b - m_b
    missing eigenvalues of ``A^T A`` are exact zeros.  The default
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
    m_b, n_b = a.shape
    lam, u = np.linalg.eigh(a @ a.T if m_b < n_b else a.T @ a)
    lam = np.concatenate([np.maximum(lam, 0.0), np.zeros(n_b - lam.size)])
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
    m_b, n_b = mix.block.shape
    if m_b < n_b:  # residual form on the m_b x m_b basis of A A^T
        gain = 1.0 / (vw + vx * lam.reshape(mix.repeats, n_b)[:, :m_b])
        resid = rw.mean - mix.apply(rx.mean)
        x_mean = rx.mean + vx * mix.apply_t(_apply_posterior_basis(mix, gain, resid))
    else:
        rhs = rx.mean / vx + mix.apply_t(rw.mean) / vw
        x_mean = _apply_posterior_basis(mix, sigma2, rhs)
    w_mean = mix.apply(x_mean)

    alpha_x = float(np.mean(ratios))
    v_post_w = float(np.sum(lam * sigma2) / mix.m)  # trace of H Sigma H^T without forming it
    x_post = PosteriorSummary(x_mean, vx * alpha_x, alpha_x)
    w_post = PosteriorSummary(w_mean, v_post_w, v_post_w / vw)
    return x_post, w_post
