import numpy as np
import pytest

from conftest import HAMMING74_ALIST, SPC3_ALIST
from oracles import (
    dense_gf2_systematize,
    enumerate_codewords,
    exhaustive_symbol_posterior,
    gf2_rank,
    reference_bp_decode,
)
from scvamp.codes import (
    AlistParseError,
    builtin_code_ids,
    load_code,
    make_regular_code,
    parse_alist,
    serialize_alist,
)
from scvamp.denoiser import (
    LLR_MAX,
    LdpcCode,
    _gf2_systematize,
    bernoulli_moments,
    bp_decode,
    encode,
    llr_from_pseudo,
    syndrome,
)
from scvamp.messages import GaussianMessage, PosteriorSummary, extrinsic


# ---------------------------------------------------------------------------
# alist parsing
# ---------------------------------------------------------------------------

def test_parse_spc3():
    code = parse_alist(SPC3_ALIST)
    assert code.n == 3 and code.k == 2
    assert len(code.checks) == 1
    np.testing.assert_array_equal(code.checks[0], [0, 1, 2])


def test_parse_hamming74(hamming74):
    assert hamming74.n == 7 and hamming74.k == 4
    assert len(hamming74.checks) == 3
    h = np.zeros((3, 7), dtype=np.uint8)
    for i, vars_ in enumerate(hamming74.checks):
        h[i, vars_] = 1
    assert gf2_rank(h) == 3  # k = n - rank independently confirmed


def test_parse_rejects_zero_index():
    bad = SPC3_ALIST.replace("1 2 3", "0 2 3")
    with pytest.raises(AlistParseError) as err:
        parse_alist(bad)
    assert "line" in str(err.value)


def test_parse_rejects_bad_header():
    with pytest.raises(AlistParseError):
        parse_alist("3\n1 3\n1 1 1\n3\n1\n1\n1\n1 2 3\n")


def test_parse_rejects_out_of_range_index():
    bad = SPC3_ALIST.replace("1 2 3", "1 2 4")
    with pytest.raises(AlistParseError):
        parse_alist(bad)


def test_parse_rejects_degree_mismatch():
    bad = SPC3_ALIST.replace("3\n1\n1\n1\n", "2\n1\n1\n1\n")
    with pytest.raises(AlistParseError):
        parse_alist(bad)


def test_parse_rejects_inconsistent_sections():
    # column section says variable 1 is in the check, row section disagrees
    bad = HAMMING74_ALIST.replace("1 3 5 7 0 0 0", "2 3 5 7 0 0 0")
    with pytest.raises(AlistParseError):
        parse_alist(bad)


def _with_line(text, lineno, new):
    lines = text.splitlines()
    lines[lineno - 1] = new
    return "\n".join(lines) + "\n"


_MALFORMED_ALISTS = {
    "non-integer token": (_with_line(SPC3_ALIST, 5, "1x"), 5, "non-integer"),
    "non-integer after a blank line": ("\n" + _with_line(SPC3_ALIST, 5, "one"), 6,
                                       "non-integer"),
    "max-degree line": (_with_line(SPC3_ALIST, 2, "1 3 3"), 2, "max_col_degree"),
    "column-degree count": (_with_line(SPC3_ALIST, 3, "1 1"), 3, "column degrees"),
    "row-degree count": (_with_line(SPC3_ALIST, 4, "3 0"), 4, "row degrees"),
    "edge counts disagree": (_with_line(SPC3_ALIST, 4, "2"), 4, "edge count"),
    "line count": (SPC3_ALIST + "1 2 3\n", 9, "non-empty lines"),
    "non-zero padding": (_with_line(HAMMING74_ALIST, 5, "1 0 2"), 5, "padding"),
    "variable twice in a row": (_with_line(SPC3_ALIST, 8, "1 2 2"), 8, "twice"),
    "fewer entries than the degree": (_with_line(SPC3_ALIST, 8, "1 2"), 8, "declares degree"),
    "no room for a header": ("3 1\n1 3\n", None, "too short"),
}


@pytest.mark.parametrize("case", _MALFORMED_ALISTS)
def test_parse_rejection_names_its_line(case):
    text, line, match = _MALFORMED_ALISTS[case]
    with pytest.raises(AlistParseError, match=match) as err:
        parse_alist(text)
    assert err.value.line == line


def test_parse_skips_blank_lines(hamming74):
    lines = HAMMING74_ALIST.splitlines()
    code = parse_alist("\n  \n" + "\n\n".join(lines[:5]) + "\n\t\n" + "\n".join(lines[5:]))
    assert (code.n, code.k) == (7, 4)
    for got, want in zip(code.checks, hamming74.checks, strict=True):
        np.testing.assert_array_equal(got, want)


def test_alist_roundtrip(hamming74, spc3):
    # the last two: a code with no checks, and one whose two checks have degree 0
    for code in (hamming74, spc3, make_regular_code(48, seed=2),
                 LdpcCode.from_checks(16, []), LdpcCode.from_checks(4, [[], []])):
        again = parse_alist(serialize_alist(code))
        assert again.n == code.n and again.k == code.k
        assert len(again.checks) == len(code.checks)
        for a, b in zip(again.checks, code.checks):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(again.column_permutation, code.column_permutation)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_all_zero(spc3):
    np.testing.assert_array_equal(encode(spc3, [0, 0]), [0, 0, 0])


def test_encode_spc3_parity_by_hand(spc3):
    np.testing.assert_array_equal(encode(spc3, [1, 0]), [1, 0, 1])


def test_encode_hamming_zero_syndrome(hamming74):
    rng = np.random.default_rng(1)
    for _ in range(10):
        info = rng.integers(0, 2, hamming74.k, dtype=np.uint8)
        word = encode(hamming74, info)
        assert not syndrome(hamming74, word).any()
        np.testing.assert_array_equal(word[hamming74.column_permutation[:4]], info)


def test_encode_is_linear(hamming74):
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, 4, dtype=np.uint8)
    b = rng.integers(0, 2, 4, dtype=np.uint8)
    np.testing.assert_array_equal(
        encode(hamming74, a ^ b), encode(hamming74, a) ^ encode(hamming74, b)
    )


def test_encode_wrong_length(spc3):
    with pytest.raises(ValueError):
        encode(spc3, [1, 0, 1])


def test_redundant_rows_flagged_and_dropped():
    code = LdpcCode.from_checks(3, [[0, 1, 2], [0, 1, 2]])
    assert code.k == 2
    assert code.redundant_checks == (1,)
    word = encode(code, [1, 1])
    assert not syndrome(code, word).any()


def test_from_checks_validation():
    outside = r"check 0 references a variable outside \[0, 3\)"
    with pytest.raises(ValueError, match=outside):
        LdpcCode.from_checks(3, [[0, 3]])
    with pytest.raises(ValueError, match=outside):
        LdpcCode.from_checks(3, [[-1, 1]])
    with pytest.raises(ValueError, match=outside):  # the range is checked first
        LdpcCode.from_checks(3, [[5, 5]])
    with pytest.raises(ValueError, match="check 1 lists a variable twice"):
        LdpcCode.from_checks(3, [[0], [1, 1]])
    code = LdpcCode.from_checks(3, [[2, 0, 1]])
    (check,) = code.checks
    assert check.dtype == np.int64
    assert check.tolist() == [0, 1, 2]


_ELIMINATION_CODES = {
    "redundant-rows": lambda: (3, [[0, 1, 2], [0, 1, 2]]),
    "irregular": lambda: (
        40, _irregular_checks(40, [12, 1, 9, 5, 2, 10, 7, 3, 11, 4, 6, 8] * 2, seed=8)),
    "empty-checks": lambda: (4, [[], [0, 1], []]),
    # n not a multiple of 8 leaves the last packed byte part-filled (the greedy
    # placement jams at n = 30 for every seed make_regular_code tries)
    **{f"regular-{n}-seed{seed}": (lambda n=n, seed=seed: (n, make_regular_code(n, seed).checks))
       for n, seed in ((36, 1), (36, 2), (42, 3), (60, 4))},
}


@pytest.mark.parametrize("name", _ELIMINATION_CODES)
def test_packed_elimination_matches_dense_oracle(name):
    n, checks = _ELIMINATION_CODES[name]()
    checks = [np.sort(np.asarray(c, dtype=np.int64)) for c in checks]
    parity, perm, redundant = _gf2_systematize(n, checks)
    want_parity, want_perm, want_redundant = dense_gf2_systematize(n, checks)
    assert parity.dtype == want_parity.dtype
    np.testing.assert_array_equal(parity, want_parity)
    np.testing.assert_array_equal(perm, want_perm)
    assert redundant == want_redundant


# ---------------------------------------------------------------------------
# LLR conversion
# ---------------------------------------------------------------------------

def test_llr_from_pseudo_direct():
    out = llr_from_pseudo(GaussianMessage(np.array([1.0, 0.0]), 0.5))
    np.testing.assert_allclose(out, [4.0, 0.0])


def test_llr_from_pseudo_saturates():
    out = llr_from_pseudo(GaussianMessage(np.array([100.0, -100.0]), 1e-4))
    np.testing.assert_allclose(out, [LLR_MAX, -LLR_MAX])


# ---------------------------------------------------------------------------
# BP decoding
# ---------------------------------------------------------------------------

def test_bp_zero_in_zero_out(spc3):
    out = bp_decode(spc3, np.zeros(3), 5)
    np.testing.assert_array_equal(out, 0.0)


def test_bp_spc3_single_iteration_exact(spc3):
    # one check, cycle-free: one iteration is exact
    out = bp_decode(spc3, np.array([2.0, 2.0, 2.0]), 1)
    expect = 2.0 + 2.0 * np.arctanh(np.tanh(1.0) ** 2)
    np.testing.assert_allclose(out, expect, rtol=1e-12)
    assert out[0] == pytest.approx(3.3250027473578643, abs=1e-12)
    post = np.tanh(out / 2)
    oracle = exhaustive_symbol_posterior(3, spc3.checks, [2.0, 2.0, 2.0])
    np.testing.assert_allclose(post, oracle, atol=1e-10)


def test_bp_exact_on_single_parity_checks():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5, 6):
        code = LdpcCode.from_checks(n, [list(range(n))])
        llr = rng.normal(scale=2.0, size=n)
        out = bp_decode(code, llr, 1)
        post = np.tanh(out / 2)
        oracle = exhaustive_symbol_posterior(n, code.checks, llr)
        np.testing.assert_allclose(post, oracle, atol=1e-10)


def test_bp_hamming_strong_llrs_recover_codeword(hamming74):
    rng = np.random.default_rng(4)
    info = rng.integers(0, 2, 4, dtype=np.uint8)
    word = encode(hamming74, info)
    llr = 10.0 * (1.0 - 2.0 * word.astype(float))
    out = bp_decode(hamming74, llr, 5)
    np.testing.assert_array_equal((out < 0).astype(np.uint8), word)
    oracle = exhaustive_symbol_posterior(7, hamming74.checks, llr)
    np.testing.assert_array_equal(np.sign(np.tanh(out / 2)), np.sign(oracle))


def test_bp_sign_symmetry():
    code = make_regular_code(48, seed=2)
    rng = np.random.default_rng(5)
    llr = rng.normal(scale=3.0, size=48)
    pos = bp_decode(code, llr, 10)
    neg = bp_decode(code, -llr, 10)
    np.testing.assert_array_equal(pos, -neg)


def test_bp_deterministic():
    code = make_regular_code(48, seed=2)
    llr = np.random.default_rng(6).normal(size=48)
    a = bp_decode(code, llr, 7)
    b = bp_decode(code, llr, 7)
    np.testing.assert_array_equal(a, b)


def _irregular_checks(n, degrees, seed):
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=d, replace=False) for d in degrees]


_ORACLE_CODES = {
    "hamming74": lambda: parse_alist(HAMMING74_ALIST),
    "spc3": lambda: parse_alist(SPC3_ALIST),
    # check degrees 1 to 12 and variable degrees from 0 up
    "irregular": lambda: LdpcCode.from_checks(
        40, _irregular_checks(40, [12, 1, 9, 5, 2, 10, 7, 3, 11, 4, 6, 8] * 2, seed=8)),
    # one check (m = 1) and one variable (n = 1) of degree >= 9: a single-column
    # layout would be summed pairwise, not in edge order
    "one-check": lambda: LdpcCode.from_checks(11, [list(range(11))]),
    "one-variable": lambda: LdpcCode.from_checks(1, [[0]] * 10),
    "empty-checks": lambda: LdpcCode.from_checks(4, [[], [0, 1], []]),
    **{cid: (lambda cid=cid: load_code(f"builtin:{cid}")[0]) for cid in builtin_code_ids()},
}


def _oracle_llrs(n, seed):
    rng = np.random.default_rng(seed)
    cases = {f"normal-{scale}": rng.normal(scale=scale, size=n) for scale in (0.5, 3.0, 12.0)}
    cases["zero"] = np.zeros(n)
    cases["half-zero"] = np.where(np.arange(n) % 2 == 0, 0.0, rng.normal(scale=2.0, size=n))
    cases["saturated"] = np.where(rng.random(n) < 0.5, -1.0, 1.0) * LLR_MAX
    cases["beyond-saturation"] = np.where(rng.random(n) < 0.5, -40.0, 40.0)
    return cases


@pytest.mark.parametrize("name", _ORACLE_CODES)
def test_bp_matches_edge_list_oracle_bit_for_bit(name):
    code = _ORACLE_CODES[name]()
    for label, llr in _oracle_llrs(code.n, seed=9).items():
        before = llr.tobytes()
        for iterations in (1, 5, 20):
            got = bp_decode(code, llr, iterations)
            # the runner reads its input LLRs again after BP
            assert llr.tobytes() == before, f"{label}: bp_decode wrote to its input"
            want = reference_bp_decode(code, llr, iterations)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                          err_msg=f"{label}, {iterations} iterations")


def test_bp_requires_iterations():
    with pytest.raises(ValueError):
        bp_decode(LdpcCode.from_checks(2, []), np.zeros(2), 0)
    with pytest.raises(ValueError, match="LLR length"):
        bp_decode(LdpcCode.from_checks(2, []), np.zeros(3), 1)


def test_codes_with_empty_edge_lists():
    code = LdpcCode.from_checks(4, [[], [0, 1], []])
    assert code.num_edges == 2
    np.testing.assert_array_equal(syndrome(code, [1, 0, 0, 0]), [0, 1, 0])
    uncoded = LdpcCode.from_checks(3, [])
    assert syndrome(uncoded, [1, 0, 1]).shape == (0,) and uncoded.num_edges == 0
    np.testing.assert_array_equal(bp_decode(uncoded, [40.0, -0.5, 0.0], 5), [30.0, -0.5, 0.0])


def test_bp_parity_valid_after_successful_decode(hamming74):
    rng = np.random.default_rng(7)
    word = encode(hamming74, rng.integers(0, 2, 4, dtype=np.uint8))
    llr = 6.0 * (1.0 - 2.0 * word.astype(float))
    llr[0] = -llr[0] * 0.2  # one weak flipped bit
    out = bp_decode(hamming74, llr, 20)
    hard = (out < 0).astype(np.uint8)
    assert not syndrome(hamming74, hard).any()


# ---------------------------------------------------------------------------
# the decoder as a denoiser: BP posteriors mapped to symbol moments
# ---------------------------------------------------------------------------

def _denoise(rx, code, iterations):
    """Onsager-corrected denoiser output, as the receiver forms it."""
    means, v_post = bernoulli_moments(bp_decode(code, llr_from_pseudo(rx), iterations))
    post = PosteriorSummary(means, v_post, v_post / rx.variance)
    return extrinsic(rx, post), post


def _llr_subtraction(rx, code, iterations):
    """Bernoulli moments of the classical extrinsic LLRs L_app - L_in."""
    llr_in = llr_from_pseudo(rx)
    return bernoulli_moments(bp_decode(code, llr_in, iterations) - llr_in)


def test_denoiser_saturated_decode(hamming74):
    word = encode(hamming74, np.array([1, 0, 1, 1], dtype=np.uint8))
    rx = GaussianMessage(50.0 * (1.0 - 2.0 * word.astype(float)), 1e-2)
    ext, post = _denoise(rx, hamming74, 5)
    np.testing.assert_allclose(np.abs(post.mean), 1.0, atol=1e-12)
    assert post.variance < 1e-12
    assert post.alpha == post.variance / rx.variance < 1e-6  # raw; extrinsic clips it up
    exact = (post.mean - 1e-6 * rx.mean) / (1 - 1e-6)
    np.testing.assert_allclose(ext.mean, exact, rtol=1e-12)
    np.testing.assert_allclose(ext.mean, post.mean, atol=1e-4)
    assert ext.variance == pytest.approx(1e-6 / (1 - 1e-6) * rx.variance, rel=1e-9)


def test_denoiser_uncoded_is_scalar_bpsk_mmse():
    code = LdpcCode.from_checks(5, [])
    rng = np.random.default_rng(8)
    r = rng.normal(size=5)
    rx = GaussianMessage(r, 0.8)
    _, post = _denoise(rx, code, 3)
    np.testing.assert_allclose(post.mean, np.tanh(r / 0.8), rtol=1e-12)


def test_denoiser_matches_exhaustive_posterior(spc3):
    rx = GaussianMessage(np.ones(3), 1.0)
    _, post = _denoise(rx, spc3, 1)
    oracle = exhaustive_symbol_posterior(3, spc3.checks, 2.0 * np.ones(3))
    np.testing.assert_allclose(post.mean, oracle, atol=1e-10)


def test_denoiser_moments_bounded():
    code = make_regular_code(48, seed=2)
    rng = np.random.default_rng(9)
    for _ in range(5):
        rx = GaussianMessage(rng.normal(scale=2.0, size=48), float(np.exp(rng.uniform(-2, 1))))
        _, post = _denoise(rx, code, 10)
        assert np.all(np.abs(post.mean) <= 1.0)
        assert 0.0 <= post.variance <= 1.0


def test_llr_subtraction_decoder_adds_nothing():
    code = LdpcCode.from_checks(4, [])  # no checks: L_app == L_in
    rx = GaussianMessage(np.array([0.5, -0.25, 1.0, 0.0]), 1.0)
    means, variance = _llr_subtraction(rx, code, 5)
    np.testing.assert_allclose(means, 0.0, atol=1e-15)
    assert variance == pytest.approx(1.0)


def test_llr_subtraction_spc3(spc3):
    rx = GaussianMessage(np.ones(3), 1.0)  # input LLRs (2, 2, 2)
    means, _ = _llr_subtraction(rx, spc3, 1)
    l_ext = 2.0 * np.arctanh(np.tanh(1.0) ** 2)
    assert l_ext == pytest.approx(1.3250027473578643, abs=1e-12)
    np.testing.assert_allclose(means, np.tanh(l_ext / 2), rtol=1e-12)


def test_codeword_enumeration_sanity(hamming74):
    # 2^k codewords, all satisfying every check
    words = enumerate_codewords(7, hamming74.checks)
    assert len(words) == 16
    for w in words:
        assert not syndrome(hamming74, w).any()
