"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes the slow, literal route (dense inverses,
exhaustive enumeration, brute-force integration) and never calls into the
code paths it is meant to verify.
"""

import numpy as np

from scvamp.denoiser import _TANH_CLIP, LLR_MAX
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


def gram_side_coupling(block, repeats, rx, rw):
    """LMMSE coupling on the n_b x n_b gram ``A^T A`` of ``H = I_R ⊗ block``.

    The N-side form of ``coupling.precompute`` and ``coupling_posterior``,
    with the same floating-point operations in the same order: square and
    tall blocks must match it bit for bit.  Returns the clamped, tiled
    eigenvalues, the basis, and the x- and w-side ``(mean, variance, alpha)``.
    """
    a = np.asarray(block, dtype=np.float64)
    lam, u = np.linalg.eigh(a.T @ a)
    lam = np.tile(np.maximum(lam, 0.0), repeats)
    vx, vw = rx.variance, rw.variance
    ratios = vw / (vw + vx * lam)
    sigma2 = vx * ratios
    rhs = rx.mean / vx + (a.T @ rw.mean.reshape(repeats, -1, 1)).reshape(-1) / vw
    shape = (repeats, u.shape[0])
    x_mean = ((sigma2.reshape(shape) * (rhs.reshape(shape) @ u)) @ u.T).reshape(-1)
    w_mean = (a @ x_mean.reshape(repeats, -1, 1)).reshape(-1)
    alpha_x = float(np.mean(ratios))
    v_post_w = float(np.sum(lam * sigma2) / (repeats * a.shape[0]))
    return lam, u, (x_mean, vx * alpha_x, alpha_x), (w_mean, v_post_w, v_post_w / vw)


def refined_coupling_mean(h, rx_mean, vx, rw_mean, vw):
    """Posterior x mean ``r_x + v_x H^T z`` with ``(v_w I + v_x H H^T) z = r_w - H r_x``.

    A dense float64 solve refined three times against residuals formed in
    ``np.longdouble``.  For H of full row rank this M-side system stays well
    conditioned however small v_w is, unlike the N-side precision matrix.
    """
    ld = np.longdouble
    h = np.asarray(h, dtype=ld)
    cov = ld(vw) * np.eye(h.shape[0], dtype=ld) + ld(vx) * (h @ h.T)
    resid = np.asarray(rw_mean, dtype=ld) - h @ np.asarray(rx_mean, dtype=ld)
    z = np.zeros(h.shape[0], dtype=ld)
    for _ in range(3):
        z = z + np.linalg.solve(cov.astype(np.float64), (resid - cov @ z).astype(np.float64))
    return (np.asarray(rx_mean, dtype=ld) + ld(vx) * (h.T @ z)).astype(np.float64)


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


def dense_gf2_systematize(n, checks):
    """``denoiser._gf2_systematize`` on a dense 0/1 copy of H, one byte per entry.

    The same right-to-left target loop, column search and pivot order.  This
    oracle swaps H's physical columns along with ``perm``, while the kernel
    leaves its columns in place and permutes only the indices in ``perm``; the
    two agree exactly on ``(parity, perm, redundant)``.
    """
    m = len(checks)
    h = np.zeros((m, n), dtype=np.uint8)
    for i, vars_ in enumerate(checks):
        h[i, vars_] = 1
    perm = np.arange(n)
    free = np.ones(m, dtype=bool)
    pivots = []
    for target in range(n - 1, n - 1 - min(m, n), -1):
        for c in range(target, -1, -1):
            rows = np.flatnonzero((h[:, c] == 1) & free)
            if rows.size:
                break
        else:
            break  # the free rows are all zero, hence redundant
        if c != target:
            h[:, [c, target]] = h[:, [target, c]]
            perm[[c, target]] = perm[[target, c]]
        r = rows[0]
        free[r] = False
        others = h[:, target] == 1
        others[r] = False
        h[others] ^= h[r]
        pivots.append(r)
    parity = h[pivots[::-1], :n - len(pivots)]
    return parity, perm, tuple(int(i) for i in np.flatnonzero(free))


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


def reference_bp_decode(code, llr_in, iterations):
    """Flooding sum-product decoding over the flat edge list, one bincount per sum.

    The edge-list form of ``denoiser.bp_decode``, with the same floating-point
    operations in the same order: the slot-layout decoder must match it bit
    for bit.
    """
    llr = np.clip(np.asarray(llr_in, dtype=np.float64), -LLR_MAX, LLR_MAX)
    num_checks = code.num_checks
    ev = np.concatenate([np.empty(0, np.int64), *code.checks])  # check by check
    ec = np.repeat(np.arange(num_checks), [len(c) for c in code.checks])
    c2v = np.zeros(ev.size)

    for _ in range(int(iterations)):
        totals = llr + np.bincount(ev, weights=c2v, minlength=code.n)
        v2c = totals[ev] - c2v
        t = np.tanh(0.5 * v2c)
        zero = t == 0.0
        mag = np.minimum(np.abs(t), _TANH_CLIP)
        logmag = np.where(zero, 0.0, np.log(np.where(zero, 1.0, mag)))
        neg = t < 0.0

        sum_log = np.bincount(ec, weights=logmag, minlength=num_checks)
        n_neg = np.bincount(ec, weights=neg.astype(np.float64), minlength=num_checks)
        n_zero = np.bincount(ec, weights=zero.astype(np.float64), minlength=num_checks)

        zc = n_zero[ec]
        excl_log = sum_log[ec] - logmag
        excl_neg = n_neg[ec] - neg
        live = (zc == 0) | ((zc == 1) & zero)
        sign = 1.0 - 2.0 * (excl_neg.astype(np.int64) & 1)
        prod = sign * np.minimum(np.exp(excl_log), _TANH_CLIP)
        c2v = np.where(live, 2.0 * np.arctanh(prod), 0.0)

    return llr + np.bincount(ev, weights=c2v, minlength=code.n)


def reference_quadrature_moments(r, v, y, f, sigma2, rule):
    """Cavity-started adaptive Gauss-Hermite moments in one ``(M, Q)`` array.

    The rule the observation stage used before its Laplace start: a first
    pass on the cavity substitution ``w = r + sqrt(2 v) t``, then two passes
    recentred on the running moments, all three with the same ``rule``.  It
    is the baseline of the accuracy envelope test.  Returns
    ``(m1, m2, log_z, fallback)`` with ``m2`` the raw second moment.
    """
    nodes, weights = rule
    t = nodes[None, :]
    log_u = np.log(weights)[None, :]
    center = r
    scale = np.full_like(r, v)
    bad = np.zeros(r.shape, dtype=bool)
    m1 = r.copy()
    m2 = r * r + v
    for _ in range(3):
        w = center[:, None] + np.sqrt(2.0 * scale)[:, None] * t
        resid = y[:, None] - f(w)
        log_terms = (
            log_u + t * t
            - (w - r[:, None]) ** 2 / (2.0 * v)
            - resid * resid / (2.0 * sigma2)
        )
        top = np.max(log_terms, axis=1, keepdims=True)
        ok_top = np.isfinite(top[:, 0])
        q = np.exp(log_terms - np.where(np.isfinite(top), top, 0.0))
        z0 = q.sum(axis=1)
        z1 = (q * w).sum(axis=1)
        z2 = (q * w * w).sum(axis=1)
        good = ok_top & np.isfinite(z0) & (z0 > 0.0) & np.isfinite(z1) & np.isfinite(z2)
        bad |= ~good
        safe = np.where(good, z0, 1.0)
        m1 = np.where(bad, r, z1 / safe)
        m2 = np.where(bad, r * r + v, z2 / safe)
        m2 = np.maximum(m2, m1 * m1)  # posterior variance never negative
        center = m1
        last_scale = scale
        scale = np.maximum(m2 - m1 * m1, 1e-12 * v)
    log_z = np.where(
        bad,
        -np.inf,
        top[:, 0] + np.log(safe) + 0.5 * np.log(2.0 * last_scale)
        - 0.5 * np.log(2.0 * np.pi * v) - 0.5 * np.log(2.0 * np.pi * sigma2),
    )
    return m1, m2, log_z, bad
