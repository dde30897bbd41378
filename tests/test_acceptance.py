"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they complete.  The statistical criteria (8-10) run full
desk-scale Monte Carlo sweeps, which a BER sweep keeps short by stopping each
frame once it converges; everything else finishes in seconds.  The whole file
took 59 s on a 2-vCPU Intel Xeon VM.
"""

import numpy as np
import pytest

from conftest import component_moments
from oracles import (
    combine,
    dense_coupling,
    exhaustive_symbol_posterior,
    log_gaussian_coupling_normalizer,
    trapezoid_tanh_moments,
)
from scvamp.channel import realize
from scvamp.codes import builtin_code_ids, load_code, parse_alist, serialize_alist
from scvamp.coupling import coupling_posterior, precompute
from scvamp.denoiser import LdpcCode, bp_decode
from scvamp.experiment import SweepConfig, ber_sweep, build_scenario, wilson_interval
from scvamp.likelihood import ChannelSpec, likelihood_step, log_normalizer
from scvamp.messages import GaussianMessage, PosteriorSummary, extrinsic
from scvamp.runner import Variant, run_variant


def _report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_coupling_vs_dense_inverse_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(2, 17))
        h = rng.normal(size=(m, n))
        vx = float(np.exp(rng.uniform(-1.5, 1.5)))
        vw = float(np.exp(rng.uniform(-1.5, 1.5)))
        rx = rng.normal(size=n)
        rw = rng.normal(size=m)
        x, w = coupling_posterior(GaussianMessage(rx, vx), GaussianMessage(rw, vw),
                                  precompute(h))
        xo, wo, vxo, vwo, axo, awo = dense_coupling(h, rx, vx, rw, vw)
        worst = max(
            worst,
            float(np.max(np.abs(x.mean - xo))),
            float(np.max(np.abs(w.mean - wo))),
            abs(x.variance - vxo),
            abs(w.variance - vwo),
            abs(x.alpha - axo),
            abs(w.alpha - awo),
        )
    _report(1, worst <= 1e-10, f"200 instances, worst abs deviation {worst:.2e} <= 1e-10")


def test_criterion_02_likelihood_vs_dense_integration():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        v = 10 ** rng.uniform(np.log10(0.02), np.log10(0.6))
        s2 = 10 ** rng.uniform(np.log10(0.08), np.log10(0.6))
        w_true = rng.normal(0.0, 1.0)
        r = w_true + np.sqrt(v) * rng.normal()
        y = np.tanh(w_true) + np.sqrt(s2) * rng.normal()
        m1, m2 = component_moments(r, v, y, ChannelSpec("tanh", s2))
        m1o, m2o = trapezoid_tanh_moments(r, v, y, s2)
        worst = max(worst, abs(m1 - m1o) / max(abs(m1o), 1e-3),
                    abs(m2 - m2o) / max(abs(m2o), 1e-3))
    _report(2, worst <= 1e-8, f"100 tanh instances, worst relative error {worst:.2e} <= 1e-8")


def test_criterion_03_bp_vs_exhaustive_posterior():
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in (3, 4, 5, 6):
        code = LdpcCode.from_checks(n, [list(range(n))])
        for _ in range(10):
            llr = rng.normal(scale=2.0, size=n)
            post = np.tanh(bp_decode(code, llr, 1) / 2)
            oracle = exhaustive_symbol_posterior(n, code.checks, llr)
            worst = max(worst, float(np.max(np.abs(post - oracle))))
    _report(3, worst <= 1e-10,
            f"single-parity-check n=3..6, worst posterior deviation {worst:.2e} <= 1e-10")


def test_criterion_04_tweedie_and_stein_finite_differences():
    rng = np.random.default_rng(104)
    worst = 0.0
    # coupling: averaged divergence of the posterior mean equals alpha_x
    for _ in range(5):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        h = rng.normal(size=(m, n))
        vx = float(np.exp(rng.uniform(-1, 1)))
        vw = float(np.exp(rng.uniform(-1, 1)))
        rx, rw = rng.normal(size=n), rng.normal(size=m)
        mix = precompute(h)
        x, _ = coupling_posterior(GaussianMessage(rx, vx), GaussianMessage(rw, vw), mix)
        step = 1e-5 * np.sqrt(vx)
        div = 0.0
        for i in range(n):
            up, dn = rx.copy(), rx.copy()
            up[i] += step
            dn[i] -= step
            xp, _ = coupling_posterior(GaussianMessage(up, vx), GaussianMessage(rw, vw), mix)
            xm, _ = coupling_posterior(GaussianMessage(dn, vx), GaussianMessage(rw, vw), mix)
            div += (xp.mean[i] - xm.mean[i]) / (2 * step)
        worst = max(worst, abs(div / n - x.alpha))
        # coupling Tweedie: x_post - rx = vx * grad log Z
        grad = np.zeros(n)
        for i in range(n):
            up, dn = rx.copy(), rx.copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            grad[i] = (log_gaussian_coupling_normalizer(h, up, vx, rw, vw)
                       - log_gaussian_coupling_normalizer(h, dn, vx, rw, vw)) / 2e-6
        worst = max(worst, float(np.max(np.abs(x.mean - rx - vx * grad))))
    # likelihood: v * dlogZ/dr = m1 - r and second-order Tweedie
    for r in (-1.0, 0.0, 0.7):
        for v in (0.1, 0.5):
            for y in (-0.8, 0.3):
                for s2 in (0.1, 0.4):
                    spec = ChannelSpec("tanh", s2)
                    h_fd = 1e-4 * np.sqrt(v)
                    grad = (log_normalizer(r + h_fd, v, y, spec)
                            - log_normalizer(r - h_fd, v, y, spec)) / (2 * h_fd)
                    m1, m2 = component_moments(r, v, y, spec)
                    worst = max(worst, abs(v * grad - (m1 - r)))
                    sp = (component_moments(r + h_fd, v, y, spec)[0] - (r + h_fd)) / v
                    sm = (component_moments(r - h_fd, v, y, spec)[0] - (r - h_fd)) / v
                    ds = (sp - sm) / (2 * h_fd)
                    worst = max(worst, abs((m2 - m1 * m1) - (v + v * v * ds)))
    _report(4, worst <= 1e-5, f"finite-difference suites, worst deviation {worst:.2e} <= 1e-5")


def test_criterion_05_extrinsic_roundtrip():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(1, 6))
        v_in = float(np.exp(rng.uniform(-3, 3)))
        alpha = float(rng.uniform(1e-4, 1 - 1e-4))
        msg = GaussianMessage(rng.normal(size=dim), v_in)
        post = PosteriorSummary(rng.normal(size=dim), alpha * v_in, alpha)
        back = combine(msg, extrinsic(msg, post))
        scale = max(1.0, float(np.max(np.abs(post.mean))))
        worst = max(worst, float(np.max(np.abs(back.mean - post.mean))) / scale,
                    abs(back.variance - post.variance) / post.variance)
    _report(5, worst <= 1e-12, f"10^4 roundtrips, worst relative deviation {worst:.2e} <= 1e-12")


def test_criterion_06_identity_reduction():
    code = load_code("builtin:r12-n128")[0]
    spec = ChannelSpec("id", 0.25)
    rng = np.random.default_rng(106)
    y = rng.normal(size=128)
    worst_ext = 0.0
    for _ in range(20):  # arbitrary per-iteration input messages
        rw = GaussianMessage(rng.normal(size=128), float(np.exp(rng.uniform(-3, 2))))
        ext, _ = likelihood_step(rw, y, spec)
        worst_ext = max(worst_ext, float(np.max(np.abs(ext.mean - y))),
                        abs(ext.variance - 0.25))
    worst_trace = 0.0
    for seed in range(3):
        scenario = build_scenario(code, "iid:128x128", 6.0, "id", seed)
        truth = realize(scenario)
        a = run_variant(Variant.SCVAMP3, truth, scenario, 20, 20)
        b = run_variant(Variant.SCVAMP2_MISMATCHED, truth, scenario, 20, 20)
        worst_trace = max(
            worst_trace,
            float(np.max(np.abs(a.trace.mse - b.trace.mse))),
            float(np.max(np.abs(a.trace.v_x - b.trace.v_x))),
            float(np.max(np.abs(a.trace.v_w - b.trace.v_w))),
        )
    ok = worst_ext == 0.0 and worst_trace <= 1e-10
    _report(6, ok, f"identity extrinsic exact (dev {worst_ext:.1e}), "
                   f"3-stage vs 2-stage trace dev {worst_trace:.2e} <= 1e-10")


def test_criterion_07_blockdiag_fast_path():
    rng = np.random.default_rng(107)
    b, reps = 4, 3
    block = rng.normal(size=(b, b))
    fast = precompute(block, reps)
    dense = precompute(np.kron(np.eye(reps), block))
    worst = 0.0
    for _ in range(20):
        rx = GaussianMessage(rng.normal(size=b * reps), float(np.exp(rng.uniform(-1, 1))))
        rw = GaussianMessage(rng.normal(size=b * reps), float(np.exp(rng.uniform(-1, 1))))
        xf, wf = coupling_posterior(rx, rw, fast)
        xd, wd = coupling_posterior(rx, rw, dense)
        worst = max(worst, float(np.max(np.abs(xf.mean - xd.mean))),
                    float(np.max(np.abs(wf.mean - wd.mean))),
                    abs(xf.variance - xd.variance), abs(wf.variance - wd.variance),
                    abs(xf.alpha - xd.alpha), abs(wf.alpha - wd.alpha))
    _report(7, worst <= 1e-12, f"B=4 x 3 fast path vs dense, worst deviation {worst:.2e} <= 1e-12")


def test_criterion_08_mse_convergence_analogue():
    code = load_code("builtin:r12-n128")[0]
    variants = (Variant.SCVAMP3, Variant.NO_ONSAGER, Variant.LLR_TURBO)
    finals = {v: [] for v in variants}
    for seed in range(50):
        scenario = build_scenario(code, "iid:128x128", 6.0, "id", seed)
        truth = realize(scenario)
        for v in variants:
            res = run_variant(v, truth, scenario, 20, 20)
            finals[v].append(res.trace.mse[-1])
    med = float(np.median(finals[Variant.SCVAMP3]))
    mean_no = float(np.mean(finals[Variant.NO_ONSAGER]))
    mean_llr = float(np.mean(finals[Variant.LLR_TURBO]))
    ok = med < 1e-10 and mean_no > 1e-2 and mean_llr > 1e-2
    _report(8, ok, f"50 trials at 6 dB: scvamp3 median {med:.1e} < 1e-10, "
                   f"no-onsager mean {mean_no:.2e} > 1e-2, llr-turbo mean {mean_llr:.2e} > 1e-2")


@pytest.fixture(scope="module")
def onsager_ber_sweep():
    cfg = SweepConfig(
        snr_db_list=tuple(float(s) for s in range(3, 10)),
        code="builtin:r12-n128", h_mode="iid:128x128",
        variants=(Variant.SCVAMP3, Variant.LLR_TURBO, Variant.NO_ONSAGER),
        min_errors=100, max_seeds=500, master_seed=0,
    )
    points = ber_sweep(cfg)
    by_variant = {v: {} for v in cfg.variants}
    for p in points:
        by_variant[p.variant][p.snr_db] = p
    return by_variant


def test_criterion_09_onsager_ordering_and_gap(onsager_ber_sweep):
    snrs = sorted(onsager_ber_sweep[Variant.SCVAMP3])
    violations = []
    for snr in snrs:
        b3 = onsager_ber_sweep[Variant.SCVAMP3][snr]
        bl = onsager_ber_sweep[Variant.LLR_TURBO][snr]
        bn = onsager_ber_sweep[Variant.NO_ONSAGER][snr]
        if (b3.bit_errors or bl.bit_errors) and b3.ber > bl.ber:
            violations.append((snr, "scvamp3>llr"))
        if (bl.bit_errors or bn.bit_errors) and bl.ber > bn.ber:
            violations.append((snr, "llr>no-onsager"))

    def onset(variant):
        for snr in snrs:
            if onsager_ber_sweep[variant][snr].ber <= 1e-2:
                return snr
        return None

    s3 = onset(Variant.SCVAMP3)
    no = onset(Variant.NO_ONSAGER)
    gap = None if s3 is None or no is None else no - s3
    ok = not violations and gap is not None and 2.0 <= gap <= 4.0
    _report(9, ok, f"ordering violations {violations or 'none'}; "
                   f"waterfall onsets scvamp3 {s3} dB / no-onsager {no} dB, gap {gap} in [2, 4]")


@pytest.fixture(scope="module")
def tanh_sweeps():
    sweeps = {}
    for n in (128, 512):
        cfg = SweepConfig(
            snr_db_list=tuple(float(s) for s in range(4, 11)),
            code=f"builtin:r12-n{n}", h_mode="blockdiag:32",
            variants=(Variant.SCVAMP3, Variant.SCVAMP2_MISMATCHED),
            nonlinearity="tanh",
            min_errors=100, max_seeds=500, master_seed=0,
        )
        by_variant = {v: {} for v in cfg.variants}
        for p in ber_sweep(cfg):
            by_variant[p.variant][p.snr_db] = p
        sweeps[n] = by_variant
    return sweeps


def test_criterion_10_tanh_waterfall_analogue(tanh_sweeps):
    mism_out_of_band = []
    for n, sweep in tanh_sweeps.items():
        for snr, p in sweep[Variant.SCVAMP2_MISMATCHED].items():
            if not 0.15 <= p.ber <= 0.35:
                mism_out_of_band.append((n, snr, p.ber))
    matched512 = tanh_sweeps[512][Variant.SCVAMP3]
    best512 = min(p.ber for p in matched512.values())
    reaches = best512 < 1e-3

    common = [
        snr for snr in sorted(matched512)
        if matched512[snr].bit_errors > 0
        and tanh_sweeps[128][Variant.SCVAMP3][snr].bit_errors > 0
    ]
    if common:
        snr = common[-1]
        p512 = matched512[snr]
        p128 = tanh_sweeps[128][Variant.SCVAMP3][snr]
        lo512, hi512 = wilson_interval(p512.bit_errors, p512.bits_simulated)
        lo128, hi128 = wilson_interval(p128.bit_errors, p128.bits_simulated)
        steepening = p512.ber <= p128.ber or (lo512 <= hi128 and lo128 <= hi512)
        detail_steep = (f"at {snr} dB BER(512)={p512.ber:.2e} vs BER(128)={p128.ber:.2e}")
    else:
        steepening = True
        detail_steep = "no common SNR with nonzero BER"
    ok = not mism_out_of_band and reaches and steepening
    _report(10, ok, f"mismatched out-of-band points {mism_out_of_band or 'none'}; "
                    f"n=512 best BER {best512:.1e} < 1e-3; {detail_steep}")


def test_criterion_11_deterministic_sweeps(tmp_path):
    payloads = []
    for workers, name in [(1, "w1.csv"), (2, "w2.csv"), (1, "again.csv")]:
        out = tmp_path / name
        cfg = SweepConfig(
            snr_db_list=(4.0, 6.0), code="builtin:r12-n128", h_mode="iid:128x128",
            variants=(Variant.SCVAMP3, Variant.NO_ONSAGER),
            min_errors=5, max_seeds=6, output_path=str(out),
            deterministic=True, workers=workers,
        )
        ber_sweep(cfg)
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    _report(11, ok, "byte-identical CSV at worker counts 1 and 2 and across reruns")


def test_criterion_12_alist_roundtrip_all_bundled():
    bad = []
    for code_id in builtin_code_ids():
        code = load_code(f"builtin:{code_id}")[0]
        again = parse_alist(serialize_alist(code))
        same = (
            again.n == code.n and again.k == code.k
            and len(again.checks) == len(code.checks)
            and all(np.array_equal(a, b) for a, b in zip(again.checks, code.checks))
            and np.array_equal(again.column_permutation, code.column_permutation)
        )
        if not same:
            bad.append(code_id)
    _report(12, not bad, f"parse -> serialize -> parse identical for {len(builtin_code_ids())} "
                         f"bundled codes{'; failed: ' + str(bad) if bad else ''}")
