import numpy as np
import pytest

from oracles import (
    dense_coupling,
    gram_side_coupling,
    log_gaussian_coupling_normalizer,
    refined_coupling_mean,
)
from scvamp.coupling import coupling_posterior, precompute
from scvamp.messages import GaussianMessage, extrinsic


def _msg(mean, v):
    return GaussianMessage(np.asarray(mean, dtype=float), v)


def test_precompute_identity():
    mix = precompute(np.eye(4))
    np.testing.assert_allclose(mix.eigenvalues, 1.0)
    np.testing.assert_allclose(
        mix.eigenvectors @ np.diag(mix.eigenvalues) @ mix.eigenvectors.T, np.eye(4),
        atol=1e-12,
    )


def test_precompute_zero_matrix():
    mix = precompute(np.zeros((2, 2)))
    np.testing.assert_allclose(mix.eigenvalues, 0.0)


def test_precompute_matches_svd():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4))
    mix = precompute(h)
    sv = np.linalg.svd(h, compute_uv=False)
    np.testing.assert_allclose(np.sort(mix.eigenvalues), np.sort(sv**2), atol=1e-10)


def test_precompute_gram_reconstruction():
    # the basis rebuilds the smaller gram; a wide block's N - M other eigenvalues are exact zeros
    rng = np.random.default_rng(6)
    for m, n in [(6, 4), (3, 5), (16, 16), (2, 9)]:
        h = rng.normal(size=(m, n))
        mix = precompute(h)
        k = min(m, n)
        assert mix.eigenvectors.shape == (k, k)
        assert mix.eigenvalues.shape == (n,)
        lam = mix.eigenvalues[:k]
        gram = mix.eigenvectors @ np.diag(lam) @ mix.eigenvectors.T
        np.testing.assert_allclose(gram, h @ h.T if m < n else h.T @ h, atol=1e-10)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(h @ h.T)[-k:], atol=1e-10)
        assert np.all(mix.eigenvalues[k:] == 0.0)


def test_precompute_eigenvalues_clamped_nonnegative():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(3, 12))  # rank-deficient gram, round-off eigenvalues near 0
    mix = precompute(h)
    assert np.all(mix.eigenvalues >= 0.0)


def test_precompute_rejects_non_finite():
    with pytest.raises(ValueError):
        precompute(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="must be a 2-d matrix"):
        precompute(np.zeros(3))


def test_precompute_rejects_zero_repeats():
    with pytest.raises(ValueError, match="repeat"):
        precompute(np.eye(2), repeats=0)


def test_apply_is_adjoint_for_rectangular_blocks():
    rng = np.random.default_rng(17)
    block = rng.normal(size=(3, 5))
    mix = precompute(block, 4)
    assert (mix.m, mix.n) == (12, 20)
    dense = np.kron(np.eye(4), block)
    x = rng.normal(size=20)
    w = rng.normal(size=12)
    np.testing.assert_allclose(mix.apply(x), dense @ x, atol=1e-12)
    np.testing.assert_allclose(mix.apply_t(w), dense.T @ w, atol=1e-12)
    assert np.dot(mix.apply(x), w) == pytest.approx(np.dot(x, mix.apply_t(w)), abs=1e-12)


def test_posterior_equal_precision_average():
    mix = precompute(np.eye(4))
    x, w = coupling_posterior(_msg(np.zeros(4), 1.0), _msg(2 * np.ones(4), 1.0), mix)
    np.testing.assert_allclose(x.mean, 1.0)
    assert x.variance == pytest.approx(0.5)
    assert x.alpha == pytest.approx(0.5)
    np.testing.assert_allclose(w.mean, x.mean)
    assert w.alpha == pytest.approx(0.5)


def test_posterior_zero_matrix_uninformative_w_side():
    mix = precompute(np.zeros((3, 3)))
    rx = _msg([0.5, -1.0, 2.0], 0.7)
    x, w = coupling_posterior(rx, _msg(np.ones(3), 1.3), mix)
    np.testing.assert_allclose(x.mean, rx.mean, rtol=1e-14)
    assert x.alpha == 1.0  # raw ratio; extrinsic clips it down
    top = 1.0 - 1e-6
    assert extrinsic(rx, x).variance == top / (1.0 - top) * 0.7
    np.testing.assert_allclose(w.mean, 0.0)
    assert w.variance == 0.0


def test_posterior_matches_dense_inverse_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        h = rng.normal(size=(m, n))
        vx = float(np.exp(rng.uniform(-1.5, 1.5)))
        vw = float(np.exp(rng.uniform(-1.5, 1.5)))
        rx = rng.normal(size=n)
        rw = rng.normal(size=m)
        mix = precompute(h)
        x, w = coupling_posterior(_msg(rx, vx), _msg(rw, vw), mix)
        xo, wo, vxo, vwo, axo, awo = dense_coupling(h, rx, vx, rw, vw)
        np.testing.assert_allclose(x.mean, xo, atol=1e-10)
        np.testing.assert_allclose(w.mean, wo, atol=1e-10)
        assert x.variance == pytest.approx(vxo, abs=1e-10)
        assert w.variance == pytest.approx(vwo, abs=1e-10)
        assert x.alpha == pytest.approx(axo, abs=1e-10)
        assert w.alpha == pytest.approx(awo, abs=1e-10)


def test_posterior_spec_instance_6x4():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(6, 4))
    rx, rw = rng.normal(size=4), rng.normal(size=6)
    mix = precompute(h)
    x, w = coupling_posterior(_msg(rx, 0.7), _msg(rw, 1.3), mix)
    xo, wo, vxo, vwo, *_ = dense_coupling(h, rx, 0.7, rw, 1.3)
    np.testing.assert_allclose(x.mean, xo, atol=1e-10)
    assert x.variance == pytest.approx(vxo, abs=1e-10)
    assert w.variance == pytest.approx(vwo, abs=1e-10)


def test_w_mean_is_exactly_h_times_x_mean():
    rng = np.random.default_rng(10)
    h = rng.normal(size=(5, 7))
    mix = precompute(h)
    x, w = coupling_posterior(_msg(rng.normal(size=7), 0.9), _msg(rng.normal(size=5), 0.4), mix)
    np.testing.assert_array_equal(w.mean, h @ x.mean)


def test_coupling_extrinsic_example():
    mix = precompute(np.eye(4))
    rx = _msg(np.zeros(4), 1.0)
    x_post, _ = coupling_posterior(rx, _msg(2 * np.ones(4), 1.0), mix)
    ext_x = extrinsic(rx, x_post)
    np.testing.assert_allclose(ext_x.mean, 2.0, rtol=1e-14)
    assert ext_x.variance == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(x_post.mean, 1.0)


def test_trace_identity_alpha_versus_dense():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(2, 17))
        h = rng.normal(size=(m, n))
        vx = float(np.exp(rng.uniform(-1, 1)))
        vw = float(np.exp(rng.uniform(-1, 1)))
        mix = precompute(h)
        x, _ = coupling_posterior(_msg(np.zeros(n), vx), _msg(np.zeros(m), vw), mix)
        sigma = np.linalg.inv(np.eye(n) / vx + h.T @ h / vw)
        assert x.alpha == pytest.approx(np.trace(sigma) / n / vx, rel=1e-12)


def test_stein_divergence_matches_alpha():
    # averaged d x_mean_i / d rx_i by central differences equals alpha_x
    rng = np.random.default_rng(13)
    h = rng.normal(size=(5, 4))
    mix = precompute(h)
    vx, vw = 0.6, 1.1
    rx = rng.normal(size=4)
    rw = rng.normal(size=5)
    x, _ = coupling_posterior(_msg(rx, vx), _msg(rw, vw), mix)
    step = 1e-5 * np.sqrt(vx)
    div = 0.0
    for i in range(4):
        up, dn = rx.copy(), rx.copy()
        up[i] += step
        dn[i] -= step
        xp, _ = coupling_posterior(_msg(up, vx), _msg(rw, vw), mix)
        xm, _ = coupling_posterior(_msg(dn, vx), _msg(rw, vw), mix)
        div += (xp.mean[i] - xm.mean[i]) / (2 * step)
    assert div / 4 == pytest.approx(x.alpha, abs=1e-6)


def test_tweedie_form_finite_difference():
    # x_mean - rx equals vx * grad log Z, Z the closed-form Gaussian normalizer
    rng = np.random.default_rng(14)
    for m, n in [(3, 2), (4, 4), (2, 4)]:
        h = rng.normal(size=(m, n))
        vx = 0.8
        vw = 0.5
        rx = rng.normal(size=n)
        rw = rng.normal(size=m)
        mix = precompute(h)
        x, _ = coupling_posterior(_msg(rx, vx), _msg(rw, vw), mix)
        grad = np.zeros(n)
        hstep = 1e-6
        for i in range(n):
            up, dn = rx.copy(), rx.copy()
            up[i] += hstep
            dn[i] -= hstep
            grad[i] = (
                log_gaussian_coupling_normalizer(h, up, vx, rw, vw)
                - log_gaussian_coupling_normalizer(h, dn, vx, rw, vw)
            ) / (2 * hstep)
        np.testing.assert_allclose(x.mean - rx, vx * grad, atol=1e-6)


def test_blockdiag_fast_path_matches_dense():
    rng = np.random.default_rng(15)
    reps = 3
    for shape in ((4, 4), (3, 5), (5, 3)):
        block = rng.normal(size=shape)
        fast = precompute(block, reps)
        dense = precompute(np.kron(np.eye(reps), block))
        rx = _msg(rng.normal(size=shape[1] * reps), 0.7)
        rw = _msg(rng.normal(size=shape[0] * reps), 1.4)
        xf, wf = coupling_posterior(rx, rw, fast)
        xd, wd = coupling_posterior(rx, rw, dense)
        np.testing.assert_allclose(xf.mean, xd.mean, atol=1e-12)
        np.testing.assert_allclose(wf.mean, wd.mean, atol=1e-12)
        assert xf.variance == pytest.approx(xd.variance, abs=1e-12)
        assert wf.variance == pytest.approx(wd.variance, abs=1e-12)
        assert xf.alpha == pytest.approx(xd.alpha, abs=1e-12)
        assert wf.alpha == pytest.approx(wd.alpha, abs=1e-12)


def test_blockdiag_equals_per_block_concatenation():
    rng = np.random.default_rng(16)
    b = 3
    block = rng.normal(size=(b, b))
    mix_full = precompute(block, 2)
    mix_block = precompute(block)
    rx = rng.normal(size=2 * b)
    rw = rng.normal(size=2 * b)
    x_full, w_full = coupling_posterior(_msg(rx, 0.9), _msg(rw, 0.6), mix_full)
    parts_x, parts_w, alphas = [], [], []
    for i in range(2):
        xs, ws = coupling_posterior(
            _msg(rx[i * b:(i + 1) * b], 0.9), _msg(rw[i * b:(i + 1) * b], 0.6), mix_block
        )
        parts_x.append(xs.mean)
        parts_w.append(ws.mean)
        alphas.append(xs.alpha)
    np.testing.assert_allclose(x_full.mean, np.concatenate(parts_x), atol=1e-12)
    np.testing.assert_allclose(w_full.mean, np.concatenate(parts_w), atol=1e-12)
    assert x_full.alpha == pytest.approx(np.mean(alphas), abs=1e-12)


@pytest.mark.parametrize("shape, repeats",
                         [((128, 128), 1), ((32, 32), 72), ((6, 4), 1), ((5, 3), 3)])
def test_square_and_tall_blocks_match_gram_side_oracle_bit_for_bit(shape, repeats):
    rng = np.random.default_rng(19)
    block = rng.normal(size=shape) / np.sqrt(shape[0])
    mix = precompute(block, repeats)
    rx = _msg(rng.normal(size=repeats * shape[1]), 0.7)
    for vw in (1.3, 1e-6):
        rw = _msg(rng.normal(size=repeats * shape[0]), vw)
        lam, u, x_ref, w_ref = gram_side_coupling(block, repeats, rx, rw)
        np.testing.assert_array_equal(mix.eigenvalues, lam)
        np.testing.assert_array_equal(mix.eigenvectors, u)
        x, w = coupling_posterior(rx, rw, mix)
        for post, ref in ((x, x_ref), (w, w_ref)):
            np.testing.assert_array_equal(post.mean, ref[0])
            assert (post.variance, post.alpha) == ref[1:]


def _wide_blocks():
    rng = np.random.default_rng(20)
    repeated_row = rng.normal(size=(4, 7))
    repeated_row[2] = repeated_row[0]
    return {
        "96x128": (rng.normal(size=(96, 128)) / np.sqrt(96), 1),
        "128x256": (rng.normal(size=(128, 256)) / np.sqrt(128), 1),
        "3x12": (rng.normal(size=(3, 12)), 1),  # rank-deficient N-side gram
        "zero 2x5": (np.zeros((2, 5)), 1),
        "repeated row 4x7": (repeated_row, 1),
        "3x5 x4": (rng.normal(size=(3, 5)), 4),
    }


@pytest.mark.parametrize("name", list(_wide_blocks()))
def test_wide_block_matches_dense_and_gram_side_oracles(name):
    block, repeats = _wide_blocks()[name]
    h = np.kron(np.eye(repeats), block)
    rng = np.random.default_rng(21)
    mix = precompute(block, repeats)
    for vx, vw in ((0.7, 1.3), (2.0, 1e-3)):
        rx, rw = rng.normal(size=h.shape[1]), rng.normal(size=h.shape[0])
        x, w = coupling_posterior(_msg(rx, vx), _msg(rw, vw), mix)
        dense = dense_coupling(h, rx, vx, rw, vw)
        _, _, (xs, vxs, axs), (ws, vws, aws) = gram_side_coupling(
            block, repeats, _msg(rx, vx), _msg(rw, vw))
        # both oracles lose digits in 1/v_w themselves, so the tolerance is criterion 1's
        for ref in (dense, (xs, ws, vxs, vws, axs, aws)):
            np.testing.assert_allclose(x.mean, ref[0], rtol=0, atol=1e-10)
            np.testing.assert_allclose(w.mean, ref[1], rtol=0, atol=1e-10)
            got = (x.variance, w.variance, x.alpha, w.alpha)
            np.testing.assert_allclose(got, ref[2:], rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", ["96x128", "128x256", "3x12", "zero 2x5", "3x5 x4"])
def test_wide_block_stays_accurate_as_v_w_shrinks(name):
    # the residual form keeps full accuracy where the N-side form loses digits in 1/v_w;
    # a block with dependent rows is left out: its gram turns a zero singular value
    # into a round-off eigenvalue, which either side then divides by v_w
    block, repeats = _wide_blocks()[name]
    h = np.kron(np.eye(repeats), block)
    s2 = np.linalg.svd(h, compute_uv=False) ** 2
    rng = np.random.default_rng(22)
    mix = precompute(block, repeats)
    vx = 0.7
    for vw in (1.0, 1e-3, 1e-6, 1e-9):
        rx, rw = rng.normal(size=h.shape[1]), rng.normal(size=h.shape[0])
        x, w = coupling_posterior(_msg(rx, vx), _msg(rw, vw), mix)
        ref = refined_coupling_mean(h, rx, vx, rw, vw)
        err = np.max(np.abs(x.mean - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12, (vw, err)
        np.testing.assert_array_equal(w.mean, mix.apply(x.mean))
        alpha_x = (h.shape[1] - s2.size + np.sum(vw / (vw + vx * s2))) / h.shape[1]
        v_post_w = np.sum(s2 * vx * vw / (vw + vx * s2)) / h.shape[0]
        assert x.alpha == pytest.approx(alpha_x, rel=0, abs=1e-12)
        assert w.variance == pytest.approx(v_post_w, rel=0, abs=1e-12)


def test_dimension_mismatch_errors():
    mix = precompute(np.eye(3))
    with pytest.raises(ValueError):
        coupling_posterior(_msg(np.zeros(2), 1.0), _msg(np.zeros(3), 1.0), mix)
    with pytest.raises(ValueError):
        coupling_posterior(_msg(np.zeros(3), 1.0), _msg(np.zeros(4), 1.0), mix)
