import numpy as np
import pytest

from scvamp.channel import (
    TrialScenario,
    bpsk,
    gen_h,
    realize,
    substream,
    transmit,
)
from scvamp.denoiser import LdpcCode
from scvamp.experiment import build_scenario
from scvamp.likelihood import ChannelSpec


def _uncoded(n):
    return LdpcCode.from_checks(n, [])


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
    mix = gen_h(256, 256, 1, substream(0, "H"))
    entries = mix.block
    assert abs(entries.mean()) < 4.0 / np.sqrt(256 * 256 * 256)
    assert entries.var() == pytest.approx(1.0 / 256, rel=0.05)
    assert mix.eigenvalues.shape == (256,)


def test_gen_h_iid_seed_determinism():
    a = gen_h(8, 8, 1, substream(5, "H"))
    b = gen_h(8, 8, 1, substream(5, "H"))
    np.testing.assert_array_equal(a.block, b.block)


def test_blockdiag_single_repeat_equals_iid():
    a = build_scenario(_uncoded(6), "blockdiag:6", 6.0, "id", 9).h
    b = build_scenario(_uncoded(6), "iid:6x6", 6.0, "id", 9).h
    assert a.repeats == b.repeats == 1
    np.testing.assert_array_equal(a.block, b.block)


def test_blockdiag_structure():
    # blockdiag:32 at n128 and at n2304 (the benchmark's R = 72), and a dense M < N block
    rng = np.random.default_rng(1)
    for rows, cols, repeats in ((32, 32, 4), (32, 32, 72), (96, 128, 1)):
        mix = gen_h(rows, cols, repeats, substream(1, "H"))
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
    mix = gen_h(4, 4, 3, substream(2, "H"))
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
    code = _uncoded(6)
    mix = gen_h(6, 6, 1, substream(4, "H"))
    scenario = TrialScenario(code, mix, ChannelSpec("id", 1e-300), seed=4)
    x = bpsk(np.array([0, 1, 1, 0, 1, 0]))
    np.testing.assert_allclose(transmit(x, scenario), mix.block @ x, atol=1e-100)


def test_transmit_tanh_bounded():
    code = _uncoded(8)
    mix = gen_h(8, 8, 1, substream(5, "H"))
    scenario = TrialScenario(code, mix, ChannelSpec("tanh", 0.3), seed=5)
    y = transmit(bpsk(np.zeros(8)), scenario)
    noise = substream(5, "noise").normal(0.0, np.sqrt(0.3), 8)
    np.testing.assert_array_equal(y, np.tanh(mix.block @ np.ones(8)) + noise)
    assert np.all(np.abs(y - noise) <= 1.0)


def test_realize_reproducible():
    code = _uncoded(10)
    mix = gen_h(10, 10, 1, substream(6, "H"))
    scenario = TrialScenario(code, mix, ChannelSpec("tanh", 0.2), seed=6)
    a = realize(scenario)
    b = realize(scenario)
    for field in ("codeword", "y"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_noise_variance_estimate():
    n = 100_000
    code = _uncoded(2)
    h = np.zeros((n, 2))
    from scvamp.coupling import precompute

    scenario = TrialScenario(code, precompute(h), ChannelSpec("id", 0.7), seed=8)
    y = transmit(bpsk(np.zeros(2)), scenario)  # H = 0, so y is the noise alone
    assert y.var() == pytest.approx(0.7, rel=0.02)


def test_scenario_dimension_validation():
    code = _uncoded(5)
    mix = gen_h(4, 4, 1, substream(0, "H"))
    with pytest.raises(ValueError):
        TrialScenario(code, mix, ChannelSpec("id", 1.0), seed=0)
