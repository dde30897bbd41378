import hashlib

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from conftest import component_moments
from oracles import reference_quadrature_moments, trapezoid_tanh_moments
import scvamp.likelihood
from scvamp.likelihood import (
    ChannelSpec,
    _RULES,
    _quadrature_moments,
    likelihood_step,
    log_normalizer,
)
from scvamp.messages import GaussianMessage


def test_gh_rule_weight_sum_and_symmetry():
    for nodes, weights in _RULES:
        assert weights.sum() == pytest.approx(np.sqrt(np.pi), abs=1e-12)
        np.testing.assert_allclose(np.sort(nodes), -np.sort(-nodes)[::-1],
                                   atol=1e-13)
        assert np.all(weights > 0)


def test_gh_rule_fourth_moment():
    for nodes, weights in _RULES:
        value = np.sum(weights * nodes**4)
        assert value == pytest.approx(0.75 * np.sqrt(np.pi), abs=1e-12)


def test_gh_rule_polynomial_exactness():
    # a Q-node rule integrates t^(2Q-2) exactly (odd degrees up to 2Q-1 vanish
    # by symmetry): int t^2k exp(-t^2) dt = Gamma(k + 1/2)
    for nodes, weights in _RULES:
        k = nodes.size - 1
        exact = np.sqrt(np.pi) * np.prod(np.arange(1, 2 * k, 2) / 2.0)
        assert np.sum(weights * nodes ** (2 * k)) == pytest.approx(exact, rel=1e-10)
        assert np.sum(weights * nodes ** (2 * k + 1)) == pytest.approx(0.0, abs=1e-10 * exact)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("tanh", 0.0)
    with pytest.raises(ValueError):
        ChannelSpec("tanh", -1.0)
    with pytest.raises(ValueError):
        ChannelSpec("cube", 1.0)


def test_channel_spec_snr():
    spec = ChannelSpec.from_snr_db(10.0, "tanh")
    assert spec.noise_variance == pytest.approx(0.1)
    assert spec.snr_db == pytest.approx(10.0)


@pytest.mark.parametrize("snr_db", [-4000.0, 4000.0, -1e308])
def test_channel_spec_snr_out_of_float_range(snr_db):
    with pytest.raises(ValueError):
        ChannelSpec.from_snr_db(snr_db, "id")


def test_identity_conjugate_example():
    spec = ChannelSpec("id", 1.0)
    m1, m2 = component_moments(0.0, 1.0, 1.0, spec)
    assert m1 == pytest.approx(0.5, abs=1e-14)
    assert m2 - m1 * m1 == pytest.approx(0.5, abs=1e-14)


def test_tanh_delta_prior_limit():
    spec = ChannelSpec("tanh", 0.2)
    m1, _ = component_moments(0.37, 1e-10, 0.9, spec)
    assert m1 == pytest.approx(0.37, abs=1e-7)


def test_tanh_matches_dense_integration_oracle():
    spec = ChannelSpec("tanh", 0.1)
    m1, m2 = component_moments(0.3, 0.8, 0.5, spec)
    m1o, m2o = trapezoid_tanh_moments(0.3, 0.8, 0.5, 0.1)
    assert m1 == pytest.approx(m1o, rel=1e-8)
    assert m2 == pytest.approx(m2o, rel=1e-8)


def test_cavity_variance_must_be_positive():
    with pytest.raises(ValueError):
        component_moments(0.0, 0.0, 0.0, ChannelSpec("tanh", 0.1))


def test_identity_step_returns_observation_exactly():
    rng = np.random.default_rng(3)
    y = rng.normal(size=6)
    spec = ChannelSpec("id", 0.37)
    for _ in range(5):
        rw = GaussianMessage(rng.normal(size=6), float(np.exp(rng.uniform(-2, 2))))
        ext, post = likelihood_step(rw, y, spec)
        np.testing.assert_array_equal(ext.mean, y)
        assert ext.variance == 0.37
        assert post.alpha == pytest.approx(0.37 / (rw.variance + 0.37), rel=1e-12)


def test_identity_alpha_matches_fisher_information_form():
    # alpha = 1 - (v/N) J with J = N / (v + sigma2) for the conjugate case
    spec = ChannelSpec("id", 0.6)
    rw = GaussianMessage(np.array([0.1, -0.4, 2.0]), 1.3)
    _, post = likelihood_step(rw, np.array([0.0, 0.5, 1.5]), spec)
    fisher = 3 / (1.3 + 0.6)
    assert post.alpha == pytest.approx(1.0 - (1.3 / 3) * fisher, rel=1e-12)


def test_uninformative_observation_limit():
    spec = ChannelSpec("tanh", 1e6)
    rw = GaussianMessage(np.zeros(4), 0.5)
    ext, post = likelihood_step(rw, np.ones(4), spec)
    top = 1.0 - 1e-6
    assert top < post.alpha < 1.0  # raw ratio above the ceiling extrinsic clips it to
    assert ext.variance == top / (1.0 - top) * 0.5
    assert ext.variance > 1e4


def test_step_matches_hand_extrinsic_on_oracle_moments():
    rng = np.random.default_rng(4)
    v = 0.3
    sigma2 = 0.15
    spec = ChannelSpec("tanh", sigma2)
    r = rng.normal(size=8) * 0.8
    y = np.tanh(r + np.sqrt(v) * rng.normal(size=8)) + np.sqrt(sigma2) * rng.normal(size=8)
    ext, post = likelihood_step(GaussianMessage(r, v), y, spec)
    m1o = np.empty(8)
    m2o = np.empty(8)
    for i in range(8):
        m1o[i], m2o[i] = trapezoid_tanh_moments(r[i], v, y[i], sigma2)
    v_post = np.mean(m2o - m1o**2)
    alpha = v_post / v
    hand_mean = (m1o - alpha * r) / (1 - alpha)
    hand_var = alpha / (1 - alpha) * v
    np.testing.assert_allclose(post.mean, m1o, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(ext.mean, hand_mean, rtol=1e-6, atol=1e-8)
    assert ext.variance == pytest.approx(hand_var, rel=1e-7)


# wide grid for the self-consistency (finite-difference) suites
_FD_GRID = [
    (r, v, y, s2)
    for r in (-1.0, 0.0, 0.7)
    for v in (0.1, 0.5)
    for y in (-0.8, 0.3)
    for s2 in (0.1, 0.4)
]

# model-consistent grid (y near tanh(r)) on which Q=50 is fully converged and
# the posterior contracts; strongly discrepant (r, y) pairs with a weak
# likelihood can genuinely widen the posterior beyond the cavity, e.g.
# (r, v, y, s2) = (-1, 0.1, 0.3, 0.4) has true variance 0.108 > v.
_CONVERGED_GRID = [
    (r, v, float(np.tanh(r) + d * np.sqrt(s2)), s2)
    for r in (-1.0, -0.3, 0.3, 1.0)
    for (v, s2) in ((0.1, 0.1), (0.1, 0.2), (0.3, 0.2), (0.4, 0.5))
    for d in (-0.5, 0.0, 0.5)
]


def test_tweedie_consistency_finite_difference():
    # v * d/dr log Z equals m1 - r
    for r, v, y, s2 in _FD_GRID:
        spec = ChannelSpec("tanh", s2)
        h = 1e-4 * np.sqrt(v)
        grad = (log_normalizer(r + h, v, y, spec) - log_normalizer(r - h, v, y, spec)) / (2 * h)
        m1, _ = component_moments(r, v, y, spec)
        assert v * grad == pytest.approx(m1 - r, abs=1e-6)


def test_second_order_tweedie_finite_difference():
    # per-component posterior variance equals v + v^2 * ds/dr
    for r, v, y, s2 in _FD_GRID:
        spec = ChannelSpec("tanh", s2)
        h = 1e-4 * np.sqrt(v)

        def score(rr):
            m1, _ = component_moments(rr, v, y, spec)
            return (m1 - rr) / v

        ds = (score(r + h) - score(r - h)) / (2 * h)
        m1, m2 = component_moments(r, v, y, spec)
        assert m2 - m1 * m1 == pytest.approx(v + v * v * ds, abs=1e-5)


def test_identity_log_normalizer_matches_closed_form():
    # with f = id the tilted density is Gaussian, so the quadrature is exact
    for r, v, y, s2 in _FD_GRID + [(3.0, 1e-6, -2.0, 1e-3), (0.2, 40.0, 0.1, 5.0)]:
        total = v + s2
        want = -((y - r) ** 2) / (2.0 * total) - 0.5 * np.log(2.0 * np.pi * total)
        got = log_normalizer(r, v, y, ChannelSpec("id", s2))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_monotone_quadrature_convergence(monkeypatch):
    # the node schedule in use agrees with one of twice the nodes per pass
    args = [(np.array([r]), v, np.array([y]), ChannelSpec("tanh", s2))
            for r, v, y, s2 in _CONVERGED_GRID]
    m_used = [_quadrature_moments(*a)[0] for a in args]
    monkeypatch.setattr(scvamp.likelihood, "_RULES",
                        tuple(hermgauss(q) for q in (24, 100)))
    for a, used in zip(args, m_used):
        assert abs(used[0] - _quadrature_moments(*a)[0][0]) <= 1e-9


def test_posterior_variance_never_exceeds_prior():
    for r, v, y, s2 in _CONVERGED_GRID:
        m1, m2 = component_moments(r, v, y, ChannelSpec("tanh", s2))
        assert m2 - m1 * m1 <= v + 1e-9


def test_underflow_fallback_returns_prior_moments():
    spec = ChannelSpec("tanh", 1e-3)
    with pytest.warns(RuntimeWarning):
        m1, m2 = component_moments(0.0, 1.0, 1e200, spec)
    assert m1 == 0.0
    assert m2 == pytest.approx(1.0)


def _tanh_case_with_fallbacks(m, v):
    """Seeded tanh inputs at sigma2 = 0.1 in which every 7th normalizer underflows."""
    rng = np.random.default_rng(m)
    r = rng.normal(size=m)
    y = np.tanh(r + np.sqrt(v) * rng.normal(size=m)) + np.sqrt(0.1) * rng.normal(size=m)
    y[3::7] = 1e200  # the fallback path
    return r, y


# lengths and cuts around the 256-component blocks
@pytest.mark.parametrize("m", [1, 255, 256, 257, 511, 512, 513, 2304])
@pytest.mark.parametrize("v", [1e-7, 0.05, 0.6, 4.0])
def test_blocked_quadrature_matches_oracle_bit_for_bit(m, v):
    # the oracle is the same kernel called on slices: where the blocks fall
    # must not move a bit, fallback rows included
    r, y = _tanh_case_with_fallbacks(m, v)
    spec = ChannelSpec("tanh", 0.1)
    cuts = [0, *sorted({c for c in (137, 255, 256, 257, 511, 512, 513, 1031) if c < m}), m]
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _quadrature_moments(r, v, y, spec)
        parts = [_quadrature_moments(r[a:b], v, y[a:b], spec) for a, b in zip(cuts, cuts[1:])]
    for name, got, *pieces in zip(("mean", "var", "log_z", "fallback"), whole, *parts):
        assert got.tobytes() == np.concatenate(pieces).tobytes(), name
    assert whole[3].any() == (m > 3)
    assert np.array_equal(whole[0][whole[3]], r[whole[3]])


# sha256 of the four outputs' bytes, recorded with the in-place (components,
# nodes) kernel that the plain (nodes, components) one replaced; like
# golden_outcomes.json they depend on the host's SIMD kernels for exp, tanh and
# the sums, so another CPU or numpy build may record other digests
_QUADRATURE_DIGESTS = {
    (600, 1e-7): "0ffeac3d6c86fd362e40fe05030873fe2efa900f422cb4c43c82dfe971c18585",
    (600, 0.05): "4b29ae1c04a0f8612189149b6a2fe7d297a496563489889b056a87da9f642744",
    (600, 0.6): "da7bee9e4bd4e3cf460c32e2f04d2975287aa6fb411963a7d135ce54464a4c90",
    (600, 4.0): "6e768386b5672502181f01c5a3f8b336ab105b12d8f4d3bb0d9d0dac410eb53f",
    (2304, 1e-7): "c75559a5af193893e5b10df710d8f71eda91a23a59682bd1aecc2639295d4b01",
    (2304, 0.05): "911028ecb6e2aaaddfa13cb6d98a41b89b257b57c713d3f3a61ffe74bbaf7bf6",
    (2304, 0.6): "43c505a0639c5085f9058546a9fa4ef8dd06b5971eafa1e07c273156d28af88e",
    (2304, 4.0): "c415dc1d5f804662812f7ca49501786b30e47c602b51bd0737606972e7a4534a",
}


@pytest.mark.parametrize("m, v", sorted(_QUADRATURE_DIGESTS))
def test_quadrature_bits_match_parent(m, v):
    # multi-block lengths, which the n128 goldens never reach
    r, y = _tanh_case_with_fallbacks(m, v)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _quadrature_moments(r, v, y, ChannelSpec("tanh", 0.1))
    assert out[3].any()
    digest = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
    assert digest == _QUADRATURE_DIGESTS[m, v]


_ENVELOPE_V = (1e-6, 1e-4, 5e-3, 0.05, 0.2, 0.6, 1.0, 2.0, 4.0)
_ENVELOPE_DB = (0.0, 2.2, 6.0, 9.0, 11.0, 14.0, 20.0)


def _worst_error(mean, var, oracle):
    """Worst mean error over the posterior std and variance error over the variance."""
    want = oracle[:, 1] - oracle[:, 0] ** 2
    mean_err = np.abs(mean - oracle[:, 0]) / np.sqrt(want)
    return float(np.max(np.maximum(mean_err, np.abs(var - want) / want)))


def test_quadrature_accuracy_envelope():
    # against brute-force integration over v in [1e-6, 4] and 0-20 dB; where
    # v <= 0.6 every cell is as accurate as the cavity-started three-pass rule
    # this one replaced, up to a factor 2 or the oracle's 1e-8 floor; wider
    # cavities only have to keep the peak (a lost one errs by a std or more)
    rng = np.random.default_rng(6)
    failures = []
    for v in _ENVELOPE_V:
        for snr_db in _ENVELOPE_DB:
            s2 = 10.0 ** (-snr_db / 10.0)
            w = rng.normal(size=12)
            r = w + np.sqrt(v) * rng.normal(size=12)
            y = np.tanh(w) + np.sqrt(s2) * rng.normal(size=12)
            oracle = np.array([trapezoid_tanh_moments(r[i], v, y[i], s2, points=200_000)
                               for i in range(12)])
            mean, var, _, _ = _quadrature_moments(r, v, y, ChannelSpec("tanh", s2))
            new = _worst_error(mean, var, oracle)
            m1, m2, _, _ = reference_quadrature_moments(r, v, y, np.tanh, s2, hermgauss(50))
            old = _worst_error(m1, m2 - m1 * m1, oracle)
            assert new < 0.5, (v, snr_db)
            if v <= 0.6 and new > max(1e-8, 2.0 * old):
                failures.append((v, snr_db, new, old))
    assert not failures


def test_step_dimension_mismatch():
    with pytest.raises(ValueError):
        likelihood_step(GaussianMessage(np.zeros(3), 1.0), np.zeros(4), ChannelSpec("id", 1.0))
