from dataclasses import replace

import numpy as np
import pytest

import scvamp.runner as runner_mod
from scvamp.channel import realize
from scvamp.codes import load_code
from scvamp.denoiser import LdpcCode, bernoulli_moments, bp_decode, llr_from_pseudo
from scvamp.experiment import build_scenario
from scvamp.likelihood import ChannelSpec
from scvamp.messages import DivergenceError, GaussianMessage, extrinsic
from scvamp.runner import POLICIES, Variant, _send, denoiser_step, run_variant


@pytest.fixture(scope="module")
def code128():
    return load_code("builtin:r12-n128")[0]


def _trial(code, h_mode, snr_db, nonlinearity, seed):
    scenario = build_scenario(code, h_mode, snr_db, nonlinearity, seed)
    return scenario, realize(scenario)


def test_variant_names():
    assert Variant("scvamp3") is Variant.SCVAMP3
    assert Variant("llr-turbo") is Variant.LLR_TURBO
    with pytest.raises(ValueError):
        Variant("scvamp4")


def test_zero_mean_decides_bit_zero(code128, monkeypatch):
    # a mean below zero decides bit 1; an exact zero of either sign decides bit 0
    scenario, truth = _trial(code128, "iid:128x128", 6.0, "id", 3)
    means = np.tile([0.0, -0.0, -0.3, 0.2], code128.n // 4)
    monkeypatch.setattr(runner_mod, "bernoulli_moments", lambda llr: (means, 0.5))
    res = run_variant(Variant.SCVAMP3, truth, scenario, 1, 5)
    assert not res.diverged
    np.testing.assert_array_equal(res.hard_bits, np.tile([0, 0, 1, 0], code128.n // 4))


def test_identity_channel_reduces_to_two_stage(code128):
    # the mismatched receiver is scvamp3 whose observation stage assumes f = id, so it
    # equals scvamp3 run on the scenario with the identity spec, bit for bit; on an
    # identity channel that scenario is the channel's own
    for h_mode, nonlinearity, snr_db in (("iid:128x128", "id", 6.0),
                                         ("blockdiag:32", "tanh", 6.0),
                                         ("blockdiag:32", "tanh", 9.0)):
        scenario, truth = _trial(code128, h_mode, snr_db, nonlinearity, 3)
        identity = replace(scenario, spec=ChannelSpec("id", scenario.spec.noise_variance))
        full = run_variant(Variant.SCVAMP3, truth, identity, 20, 20)
        two = run_variant(Variant.SCVAMP2_MISMATCHED, truth, scenario, 20, 20)
        for name in ("mse", "v_x", "v_w", "alphas"):
            np.testing.assert_array_equal(getattr(full.trace, name).view(np.int64),
                                          getattr(two.trace, name).view(np.int64),
                                          err_msg=f"{h_mode} {nonlinearity} {name}")
        np.testing.assert_array_equal(full.hard_bits, two.hard_bits)
        assert (full.bit_errors, full.converged_iteration) == (
            two.bit_errors, two.converged_iteration)


def test_noiseless_identity_converges_fast(code128):
    scenario, truth = _trial(code128, "iid:128x128", 120.0, "id", 1)
    res = run_variant(Variant.SCVAMP3, truth, scenario, 8, 10)
    assert res.trace.mse[:5].min() < 1e-10
    assert res.bit_errors == 0


def test_no_onsager_single_iteration_matches_full(code128):
    # extrinsic vs posterior forwarding differs only from iteration 2 onward
    scenario, truth = _trial(code128, "iid:128x128", 6.0, "id", 5)
    a = run_variant(Variant.SCVAMP3, truth, scenario, 1, 20)
    b = run_variant(Variant.NO_ONSAGER, truth, scenario, 1, 20)
    np.testing.assert_array_equal(a.hard_bits, b.hard_bits)
    assert a.trace.mse[0] == pytest.approx(b.trace.mse[0], abs=1e-12)


def test_llr_turbo_uncoded_degenerates_consistently():
    code = LdpcCode.from_checks(16, [])
    scenario, truth = _trial(code, "iid:16x16", 6.0, "id", 2)
    res = run_variant(Variant.LLR_TURBO, truth, scenario, 5, 5)
    # the decoder adds nothing, so the x-side message stays non-informative
    np.testing.assert_allclose(res.trace.v_x, 1.0, rtol=1e-9)
    assert np.all(np.isfinite(res.trace.mse))
    assert not res.diverged


def test_divergence_aborts_and_scores_full_frame(code128, monkeypatch):
    scenario, truth = _trial(code128, "iid:128x128", 6.0, "id", 7)

    def explode(*args, **kwargs):
        raise DivergenceError("synthetic blow-up")

    monkeypatch.setattr(runner_mod, "coupling_posterior", explode)
    res = run_variant(Variant.SCVAMP3, truth, scenario, 5, 5)
    assert res.diverged
    assert res.bit_errors == code128.n
    assert len(res.trace) == 0
    assert res.trace.alphas.shape == (0, 3)
    for name in ("mse", "v_x", "v_w"):
        assert getattr(res.trace, name).shape == (0,)
    for name in ("mse", "v_x", "v_w", "alphas"):
        assert getattr(res.trace, name).dtype == np.float64


def test_divergence_in_iteration_two_keeps_its_denoiser_decision(code128, monkeypatch):
    # the observation stage's third call is iteration 2's (the first starts the w
    # side); it blows up after iteration 2's denoiser has decided the bits
    scenario, truth = _trial(code128, "iid:128x128", 6.0, "id", 7)
    one, two = (run_variant(Variant.SCVAMP3, truth, scenario, t, 5) for t in (1, 2))
    assert not np.array_equal(one.hard_bits, two.hard_bits)
    calls = []
    original = runner_mod.likelihood_step

    def third_call_explodes(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise DivergenceError("synthetic blow-up")
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "likelihood_step", third_call_explodes)
    res = run_variant(Variant.SCVAMP3, truth, scenario, 5, 5)
    assert res.diverged
    assert res.bit_errors == code128.n
    assert len(res.trace) == 1
    for name in ("mse", "v_x", "v_w", "alphas"):
        np.testing.assert_array_equal(getattr(res.trace, name), getattr(one.trace, name))
    np.testing.assert_array_equal(res.hard_bits, two.hard_bits)


def _noisy_codeword(code, variance, seed):
    # the all-zero codeword's symbols, +1, seen at the given variance
    noise = np.random.default_rng(seed).standard_normal(code.n)
    return GaussianMessage(1.0 + np.sqrt(variance) * noise, variance)


def test_no_onsager_forwards_the_floored_posterior(code128, monkeypatch):
    # a strong input saturates BP: the posterior variance is exactly 0, and only the
    # floor keeps the forwarded message a valid one
    policy = POLICIES[Variant.NO_ONSAGER]
    msg = GaussianMessage(np.ones(code128.n), 0.1)
    sent, post = denoiser_step(msg, code128, 5, policy)
    assert post.variance == 0.0
    assert sent.variance == 1e-15
    np.testing.assert_array_equal(sent.mean, post.mean)
    # a stage's own extrinsic is ignored, and none is computed in a whole run
    again = _send(policy, msg, post, extrinsic(msg, post))
    assert again.variance == 1e-15
    np.testing.assert_array_equal(again.mean, post.mean)

    def unused(*args, **kwargs):
        raise AssertionError("no-onsager computed an extrinsic message")

    monkeypatch.setattr(runner_mod, "extrinsic", unused)
    scenario, truth = _trial(code128, "blockdiag:32", 8.0, "tanh", 4)
    assert not run_variant(Variant.NO_ONSAGER, truth, scenario, 4, 5).diverged


def test_onsager_forwards_the_extrinsic_bit_for_bit(code128):
    policy = POLICIES[Variant.SCVAMP3]
    msg = _noisy_codeword(code128, 0.8, 1)
    sent, post = denoiser_step(msg, code128, 5, policy)
    want = extrinsic(msg, post)
    np.testing.assert_array_equal(sent.mean.view(np.int64), want.mean.view(np.int64))
    assert sent.variance == want.variance
    # a stage that computes its own extrinsic has it forwarded as it is
    assert _send(policy, msg, post, want) is want


def test_llr_turbo_forwards_the_classical_extrinsic_floored(code128):
    policy = POLICIES[Variant.LLR_TURBO]
    # a noisy input, then a strong one whose classical extrinsic saturates
    for msg in (_noisy_codeword(code128, 0.8, 2), GaussianMessage(np.ones(code128.n), 0.1)):
        sent, post = denoiser_step(msg, code128, 5, policy)
        llr_in = llr_from_pseudo(msg)
        llr_app = bp_decode(code128, llr_in, 5)
        means, variance = bernoulli_moments(llr_app - llr_in)
        np.testing.assert_array_equal(sent.mean, means)
        assert sent.variance == max(variance, 1e-15)
        np.testing.assert_array_equal(post.mean, bernoulli_moments(llr_app)[0])
    assert variance == 0.0  # the strong input reached the floor


def test_tanh_high_snr_decodes_majority(code128):
    errors = []
    for seed in range(9):
        scenario, truth = _trial(code128, "blockdiag:32", 10.0, "tanh", seed)
        res = run_variant(Variant.SCVAMP3, truth, scenario, 20, 20)
        errors.append(res.bit_errors)
    assert sum(e == 0 for e in errors) >= 5


@pytest.mark.parametrize("variant", [Variant.SCVAMP3, Variant.LLR_TURBO, Variant.NO_ONSAGER])
def test_tanh_high_snr_decodes_every_frame(code128, variant):
    # more SNR must not cost frames; this needs the w side to start at the
    # observation stage's extrinsic, which is (y, sigma2) only for f = id
    failed = []
    for snr_db in (30.0, 35.0, 40.0):
        for seed in range(10):
            scenario, truth = _trial(code128, "blockdiag:32", snr_db, "tanh", seed)
            if run_variant(variant, truth, scenario, 20, 20, early_stop=True).bit_errors:
                failed.append((snr_db, seed))
    assert not failed


def test_mismatched_on_tanh_never_improves(code128):
    # ignoring the nonlinearity leaves the error floor high at every iteration
    for seed in range(3):
        scenario, truth = _trial(code128, "blockdiag:32", 8.0, "tanh", seed)
        res = run_variant(Variant.SCVAMP2_MISMATCHED, truth, scenario, 20, 20)
        assert res.trace.mse.min() > 0.1


def test_mse_non_increasing_after_iteration_three(code128):
    good = 0
    for seed in range(20):
        scenario, truth = _trial(code128, "iid:128x128", 6.0, "id", seed)
        res = run_variant(Variant.SCVAMP3, truth, scenario, 20, 20)
        if np.all(np.diff(res.trace.mse[2:]) <= 1e-12):
            good += 1
    assert good >= 18


def test_trace_shape_and_alpha_logging(code128):
    scenario, truth = _trial(code128, "iid:128x128", 6.0, "id", 11)
    res = run_variant(Variant.SCVAMP3, truth, scenario, 7, 10)
    assert len(res.trace) == 7
    assert res.trace.alphas.shape == (7, 3)
    raw = res.trace.alphas[:, 0]
    assert np.all(np.isfinite(raw))
    two = run_variant(Variant.SCVAMP2_MISMATCHED, truth, scenario, 4, 10)
    obs = two.trace.alphas[:, 1]  # the identity stage's own ratio sigma2 / (v + sigma2)
    assert np.all((obs > 0.0) & (obs < 1.0))


def test_converged_iteration_and_early_stop(code128):
    scenario, truth = _trial(code128, "iid:128x128", 120.0, "id", 13)
    res = run_variant(Variant.SCVAMP3, truth, scenario, 15, 10)
    assert res.converged_iteration is not None
    assert res.converged_iteration <= 5
    assert len(res.trace) == 15  # fixed iteration count by default
    stopped = run_variant(Variant.SCVAMP3, truth, scenario, 15, 10, early_stop=True)
    assert len(stopped.trace) == stopped.converged_iteration


@pytest.mark.parametrize("h_mode, nonlinearity, snrs", [
    ("iid:128x128", "id", (4.0, 5.0, 6.0, 7.0)),
    ("blockdiag:32", "tanh", (6.0, 7.0, 8.0, 9.0, 10.0)),
])
def test_early_stop_moves_no_outcome(code128, h_mode, nonlinearity, snrs):
    # a BER sweep stops each frame at convergence, so its outcome must be the full run's
    stopped_short = 0
    for seed in range(5):
        for snr_db in snrs:
            scenario, truth = _trial(code128, h_mode, snr_db, nonlinearity, seed)
            for variant in Variant:
                full, stopped = (
                    run_variant(variant, truth, scenario, 20, 20, early_stop=stop)
                    for stop in (False, True)
                )
                where = (seed, snr_db, variant.value)
                assert (stopped.bit_errors, stopped.diverged) == (
                    full.bit_errors, full.diverged), where
                np.testing.assert_array_equal(stopped.hard_bits, full.hard_bits, err_msg=where)
                stopped_short += len(stopped.trace) < len(full.trace)
    assert stopped_short > 0  # the grid reaches the waterfall, where frames converge


def test_run_variant_rejects_bad_iteration_count(code128):
    scenario, truth = _trial(code128, "iid:128x128", 6.0, "id", 17)
    with pytest.raises(ValueError):
        run_variant(Variant.SCVAMP3, truth, scenario, 0, 5)


def test_shared_realization_across_variants(code128):
    # the same (snr, seed) gives every variant the identical channel draw
    scenario1, truth1 = _trial(code128, "iid:128x128", 5.0, "id", 21)
    scenario2, truth2 = _trial(code128, "iid:128x128", 5.0, "id", 21)
    np.testing.assert_array_equal(truth1.y, truth2.y)
    np.testing.assert_array_equal(scenario1.h.block, scenario2.h.block)
    np.testing.assert_array_equal(truth1.codeword, truth2.codeword)
