from dataclasses import replace

import numpy as np
import pytest

from scvamp.channel import TrialScenario, bpsk, build_scenario, realize, substream
from scvamp.coupling import precompute
from scvamp.denoiser import LdpcCode
from scvamp.likelihood import ChannelSpec


def _uncoded(n):
    return LdpcCode.from_checks(n, [])


def _h(h_mode, n, seed):
    """The mixing matrix ``build_scenario`` draws for ``h_mode`` on a length-n code."""
    return build_scenario(_uncoded(n), h_mode, 6.0, "id", seed).h


def _scenario(h_mode, n, spec, seed):
    return replace(build_scenario(_uncoded(n), h_mode, 6.0, "id", seed), spec=spec)


def test_substream_deterministic_and_named():
    a = substream(7, "bits").integers(0, 1000, 5)
    b = substream(7, "bits").integers(0, 1000, 5)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        substream(7, "weights")


def test_substreams_independent_of_draw_order():
    # consuming the H stream must not shift the noise stream
    first = substream(3, "noise").normal(size=4)
    _ = substream(3, "H").normal(size=100)
    second = substream(3, "noise").normal(size=4)
    np.testing.assert_array_equal(first, second)
    assert not np.allclose(first, substream(3, "H").normal(size=4))


def test_gen_h_iid_statistics():
    mix = _h("iid:256x256", 256, 0)
    entries = mix.block
    assert abs(entries.mean()) < 4.0 / np.sqrt(256 * 256 * 256)
    assert entries.var() == pytest.approx(1.0 / 256, rel=0.05)
    assert mix.eigenvalues.shape == (256,)


def test_gen_h_iid_seed_determinism():
    a = _h("iid:8x8", 8, 5)
    np.testing.assert_array_equal(a.block, _h("iid:8x8", 8, 5).block)
    # the block is the H sub-stream's first draw, at variance 1/rows
    np.testing.assert_array_equal(a.block, substream(5, "H").normal(0.0, 1.0 / np.sqrt(8), (8, 8)))


def test_blockdiag_single_repeat_equals_iid():
    a, b = _h("blockdiag:6", 6, 9), _h("iid:6x6", 6, 9)
    assert a.repeats == b.repeats == 1
    np.testing.assert_array_equal(a.block, b.block)


def test_blockdiag_structure():
    # blockdiag:32 at n128 and at n2304 (the benchmark's R = 72), and a dense M < N block
    rng = np.random.default_rng(1)
    for h_mode, rows, cols, repeats in (("blockdiag:32", 32, 32, 4), ("blockdiag:32", 32, 32, 72),
                                        ("iid:96x128", 96, 128, 1)):
        mix = _h(h_mode, repeats * cols, 1)
        assert mix.block.shape == (rows, cols)
        assert mix.repeats == repeats and (mix.m, mix.n) == (repeats * rows, repeats * cols)
        assert mix.block.var() == pytest.approx(1.0 / rows, rel=0.2)
        dense = np.kron(np.eye(repeats), mix.block)
        for _ in range(5):
            x = rng.normal(size=mix.n)
            w = rng.normal(size=mix.m)
            np.testing.assert_array_equal(mix.apply(x), dense @ x)
            np.testing.assert_array_equal(mix.apply_t(w), dense.T @ w)


def test_blockdiag_eigenvalues_match_dense_oracle():
    mix = _h("blockdiag:4", 12, 2)
    full = np.kron(np.eye(3), mix.block)
    dense = np.linalg.eigvalsh(full.T @ full)
    np.testing.assert_allclose(np.sort(mix.eigenvalues), np.sort(np.maximum(dense, 0)),
                               atol=1e-10)
    block_eigs = np.linalg.eigvalsh(mix.block.T @ mix.block)
    np.testing.assert_allclose(np.sort(mix.eigenvalues),
                               np.sort(np.tile(np.maximum(block_eigs, 0), 3)), atol=1e-10)


def test_bpsk_mapping():
    np.testing.assert_array_equal(bpsk([0, 1, 0]), [1.0, -1.0, 1.0])
    np.testing.assert_array_equal(bpsk(np.zeros(4, dtype=np.uint8)), np.ones(4))
    bits = np.random.default_rng(3).integers(0, 2, 50)
    np.testing.assert_array_equal((bpsk(bits) < 0).astype(int), bits)


def test_transmit_noiseless_identity():
    scenario = _scenario("iid:6x6", 6, ChannelSpec("id", 1e-300), 4)
    truth = realize(scenario)
    x = bpsk(truth.codeword)
    np.testing.assert_allclose(truth.y, scenario.h.block @ x, atol=1e-100)


def test_transmit_tanh_bounded():
    scenario = _scenario("iid:8x8", 8, ChannelSpec("tanh", 0.3), 5)
    truth = realize(scenario)
    # σ z is normal(0, σ) on the noise sub-stream, bit for bit
    noise = substream(5, "noise").normal(0.0, np.sqrt(0.3), 8)
    np.testing.assert_array_equal(
        truth.y, np.tanh(scenario.h.block @ bpsk(truth.codeword)) + noise
    )
    assert np.all(np.abs(truth.y - noise) <= 1.0)


def test_realize_reproducible():
    scenario = _scenario("iid:10x10", 10, ChannelSpec("tanh", 0.2), 6)
    a = realize(scenario)
    b = realize(scenario)
    for field in ("codeword", "y"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_noise_variance_estimate():
    n = 100_000
    code = _uncoded(2)
    h = np.zeros((n, 2))
    scenario = TrialScenario(code, precompute(h), ChannelSpec("id", 0.7), seed=8)
    y = realize(scenario).y  # H = 0, so y is the noise alone
    assert y.var() == pytest.approx(0.7, rel=0.02)


def test_scenario_dimension_validation():
    code = _uncoded(5)
    mix = _h("iid:4x4", 4, 0)
    with pytest.raises(ValueError):
        TrialScenario(code, mix, ChannelSpec("id", 1.0), seed=0)
