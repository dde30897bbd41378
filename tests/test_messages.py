import numpy as np
import pytest

from oracles import combine
from scvamp.messages import (
    DivergenceError,
    GaussianMessage,
    PosteriorSummary,
    extrinsic,
)


def _clipped_variance(alpha, v_in=1.0):
    """Extrinsic variance ``a / (1 - a) * v_in``, from which ``a`` is read back."""
    out = extrinsic(GaussianMessage(np.zeros(2), v_in), PosteriorSummary(np.ones(2), 0.3, alpha))
    return out.variance


def test_clip_alpha_interior_identity():
    assert _clipped_variance(0.5) == 1.0
    assert _clipped_variance(0.25, 2.0) == 2.0 / 3.0


def test_clip_alpha_upper_clamp():
    top = 1.0 - 1e-6
    for alpha in (top, 1.0, 1.3):
        assert _clipped_variance(alpha) == top / (1.0 - top)


def test_clip_alpha_lower_clamp():
    for alpha in (1e-6, 0.0, -0.2):
        assert _clipped_variance(alpha) == 1e-6 / (1.0 - 1e-6)


def test_clip_alpha_non_finite_signals_divergence():
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(DivergenceError):
            PosteriorSummary([0.0], 1.0, alpha)


def test_message_validation():
    with pytest.raises(ValueError):
        GaussianMessage([0.0], 0.0)
    with pytest.raises(ValueError):
        GaussianMessage([0.0], -1.0)
    with pytest.raises(DivergenceError):
        GaussianMessage([np.nan], 1.0)
    with pytest.raises(DivergenceError):
        GaussianMessage([0.0], np.inf)
    with pytest.raises(ValueError, match="must be a vector"):
        GaussianMessage(np.zeros((2, 2)), 1.0)


def test_posterior_validation():
    with pytest.raises(ValueError):
        PosteriorSummary([0.0], -1e-3, 0.5)
    with pytest.raises(DivergenceError):
        PosteriorSummary([np.inf], 1.0, 0.5)
    with pytest.raises(DivergenceError, match="posterior variance"):
        PosteriorSummary(np.zeros(2), np.nan, 0.5)
    # zero posterior variance is legal (saturated denoiser)
    PosteriorSummary([1.0], 0.0, 1e-6)


def test_extrinsic_direct_evaluation():
    out = extrinsic(
        GaussianMessage(np.zeros(3), 1.0), PosteriorSummary(np.ones(3), 0.5, 0.5)
    )
    np.testing.assert_allclose(out.mean, 2.0)
    assert out.variance == pytest.approx(1.0)


def test_extrinsic_second_direct_evaluation():
    out = extrinsic(
        GaussianMessage(3.0 * np.ones(2), 2.0), PosteriorSummary(2.0 * np.ones(2), 0.5, 0.25)
    )
    np.testing.assert_allclose(out.mean, 5.0 / 3.0, rtol=1e-14)
    assert out.variance == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_extrinsic_near_perfect_posterior_limit():
    eps = 1e-6
    msg = GaussianMessage(np.full(4, 0.7), 2.0)
    post = PosteriorSummary(np.full(4, -1.3), eps * 2.0, eps)
    out = extrinsic(msg, post)
    np.testing.assert_allclose(out.mean, post.mean, rtol=1e-5)
    assert out.variance == pytest.approx(eps * 2.0, rel=1e-5)


def test_extrinsic_dimension_mismatch():
    with pytest.raises(ValueError):
        extrinsic(GaussianMessage(np.zeros(3), 1.0), PosteriorSummary(np.zeros(2), 0.5, 0.5))


def test_extrinsic_variance_positive_across_clip_range():
    msg = GaussianMessage(np.zeros(2), 0.37)
    for alpha in np.linspace(1e-6, 1.0 - 1e-6, 41):
        out = extrinsic(msg, PosteriorSummary(np.ones(2), alpha * 0.37, alpha))
        assert out.variance > 0.0


def test_combine_symmetric_average():
    out = combine(GaussianMessage(np.zeros(2), 1.0), GaussianMessage(2.0 * np.ones(2), 1.0))
    np.testing.assert_allclose(out.mean, 1.0)
    assert out.variance == pytest.approx(0.5)


def test_combine_non_informative_partner():
    out = combine(GaussianMessage([1.5, -0.5], 0.8), GaussianMessage([9.0, 9.0], 1e12))
    np.testing.assert_allclose(out.mean, [1.5, -0.5], atol=1e-10)
    assert out.variance == pytest.approx(0.8, rel=1e-10)


def test_combine_hand_computed():
    # precision-weighted by hand: 1/v = 1 + 3/2 = 5/2, mean = 0.4*(2 + 2.5)
    out = combine(GaussianMessage([2.0], 1.0), GaussianMessage([5.0 / 3.0], 2.0 / 3.0))
    np.testing.assert_allclose(out.mean, 1.8, rtol=1e-14)
    assert out.variance == pytest.approx(0.4, rel=1e-14)


def test_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        combine(GaussianMessage(np.zeros(2), 1.0), GaussianMessage(np.zeros(3), 1.0))


def test_extrinsic_roundtrip_property():
    # combine(input, extrinsic(input, post)) must reproduce the posterior
    rng = np.random.default_rng(11)
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        v_in = float(np.exp(rng.uniform(-3, 3)))
        alpha = float(rng.uniform(0.01, 0.99))
        msg = GaussianMessage(rng.normal(size=dim), v_in)
        post = PosteriorSummary(rng.normal(size=dim), alpha * v_in, alpha)
        back = combine(msg, extrinsic(msg, post))
        np.testing.assert_allclose(back.mean, post.mean, rtol=1e-12, atol=1e-12)
        assert back.variance == pytest.approx(post.variance, rel=1e-12)


def test_extrinsic_roundtrip_idempotent_under_repetition():
    msg = GaussianMessage(np.array([0.3, -1.2, 4.0]), 1.7)
    post = PosteriorSummary(np.array([0.1, 0.2, 0.3]), 0.4 * 1.7, 0.4)
    ext = extrinsic(msg, post)
    recovered = combine(msg, ext)
    for _ in range(3):
        ext2 = extrinsic(msg, PosteriorSummary(recovered.mean, recovered.variance, 0.4))
        np.testing.assert_allclose(ext2.mean, ext.mean, rtol=1e-12)
        recovered = combine(msg, ext2)
    np.testing.assert_allclose(recovered.mean, post.mean, rtol=1e-12)
