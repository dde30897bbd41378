"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes the slow, literal route (dense inverses,
exhaustive enumeration, brute-force integration) and never calls into the
code paths it is meant to verify.
"""

import numpy as np

from scvamp.messages import GaussianMessage


def dense_coupling(h, rx_mean, vx, rw_mean, vw):
    """Literal LMMSE posterior via an explicit dense inverse.

    Returns (x_mean, w_mean, v_post_x, v_post_w, alpha_x, alpha_w).
    """
    h = np.asarray(h, dtype=np.float64)
    m, n = h.shape
    sigma = np.linalg.inv(np.eye(n) / vx + h.T @ h / vw)
    x_mean = sigma @ (rx_mean / vx + h.T @ rw_mean / vw)
    w_mean = h @ x_mean
    v_post_x = np.trace(sigma) / n
    v_post_w = np.trace(h @ sigma @ h.T) / m
    return x_mean, w_mean, v_post_x, v_post_w, v_post_x / vx, v_post_w / vw


def trapezoid_tanh_moments(r, v, y, sigma2, points=1_000_000):
    """Posterior moments under N(w; r, v) * N(y; tanh(w), sigma2), brute force."""
    w = np.linspace(r - 10.0 * np.sqrt(v), r + 10.0 * np.sqrt(v), points)
    log_d = -((w - r) ** 2) / (2.0 * v) - (y - np.tanh(w)) ** 2 / (2.0 * sigma2)
    d = np.exp(log_d - log_d.max())
    z0 = np.trapezoid(d, w)
    z1 = np.trapezoid(w * d, w)
    z2 = np.trapezoid(w * w * d, w)
    return z1 / z0, z2 / z0


def enumerate_codewords(n, checks):
    """All binary words of length n satisfying every parity check (n <= 20)."""
    words = []
    for value in range(1 << n):
        bits = np.array([(value >> i) & 1 for i in range(n)], dtype=np.uint8)
        if all(bits[list(c)].sum() % 2 == 0 for c in checks):
            words.append(bits)
    return np.array(words, dtype=np.uint8)


def exhaustive_symbol_posterior(n, checks, llr):
    """Exact bitwise posterior symbol means under channel LLRs and the code prior.

    With L_i = log p(r_i | bit 0) / p(r_i | bit 1) and a uniform prior over
    codewords, p(word) is proportional to exp(-sum_i L_i * word_i).
    """
    words = enumerate_codewords(n, checks)
    log_w = -(words @ np.asarray(llr, dtype=np.float64))
    p = np.exp(log_w - log_w.max())
    p /= p.sum()
    symbols = 1.0 - 2.0 * words
    return p @ symbols


def gf2_rank(matrix):
    """Rank over GF(2) by plain forward elimination."""
    a = (np.asarray(matrix, dtype=np.uint8) & 1).copy()
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        pivots = np.nonzero(a[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + pivots[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        below = np.nonzero(a[rank + 1:, col])[0] + rank + 1
        a[below] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def log_gaussian_coupling_normalizer(h, rx_mean, vx, rw_mean, vw):
    """Closed-form log of int N(x; rx, vx I) N(Hx; rw, vw I) dx.

    Equals the Gaussian density of rw under N(H rx, vw I + vx H H^T); used to
    finite-difference the Tweedie identity for the coupling stage.
    """
    h = np.asarray(h, dtype=np.float64)
    m = h.shape[0]
    cov = vw * np.eye(m) + vx * (h @ h.T)
    resid = rw_mean - h @ rx_mean
    _, logdet = np.linalg.slogdet(cov)
    return float(
        -0.5 * resid @ np.linalg.solve(cov, resid) - 0.5 * logdet
        - 0.5 * m * np.log(2.0 * np.pi)
    )


def combine(a, b):
    """Precision-weighted product of two Gaussian messages.

    The extrinsic roundtrip identity: ``combine(input, extrinsic(input, post))``
    reproduces the posterior moments.
    """
    if a.mean.shape != b.mean.shape:
        raise ValueError(f"dimension mismatch: {a.mean.shape} vs {b.mean.shape}")
    precision = 1.0 / a.variance + 1.0 / b.variance
    variance = 1.0 / precision
    mean = variance * (a.mean / a.variance + b.mean / b.variance)
    return GaussianMessage(mean, variance)
