"""The bundled codes are what README says, their seeds rebuild them, and headers read alike."""

import hashlib

import numpy as np
import pytest

from conftest import HAMMING74_ALIST, SPC3_ALIST
from scvamp.codes import (
    BUILTIN_SEEDS,
    AlistParseError,
    builtin_code_ids,
    code_length,
    load_code,
    make_regular_checks,
    make_regular_code,
    serialize_alist,
)
from scvamp.denoiser import LdpcCode


@pytest.mark.parametrize("code_id", builtin_code_ids())
def test_builtin_code_is_regular_four_cycle_free_full_rank(code_id):
    code = load_code(f"builtin:{code_id}")[0]
    assert [len(c) for c in code.checks] == [6] * code.num_checks
    np.testing.assert_array_equal(np.bincount(np.concatenate(code.checks), minlength=code.n),
                                  np.full(code.n, 3))
    assert (code.k, code.redundant_checks) == (code.n // 2, ())
    h = np.zeros((code.num_checks, code.n))
    for row, variables in enumerate(code.checks):
        h[row, variables] = 1.0
    overlap = h @ h.T  # two checks sharing two variables close a 4-cycle
    np.fill_diagonal(overlap, 0.0)
    assert overlap.max() <= 1.0


@pytest.mark.parametrize("n, seed", BUILTIN_SEEDS.items())
def test_recorded_seed_rebuilds_builtin_code(n, seed):
    shipped = load_code(f"builtin:r12-n{n}")[0].checks
    rebuilt = make_regular_code(n, seed=seed).checks
    assert len(rebuilt) == len(shipped)
    for row, (got, want) in enumerate(zip(rebuilt, shipped)):
        np.testing.assert_array_equal(got, want, err_msg=f"check {row}")


def test_generator_rejects_a_length_without_a_regular_code():
    with pytest.raises(ValueError, match=r"n\*3 must be divisible by 6"):
        make_regular_checks(7, 0)


def test_generator_gives_up_after_its_seed_budget():
    # the greedy placement jams at n = 30 for every seed it tries
    with pytest.raises(RuntimeError, match="within 50 seeds starting at 0"):
        make_regular_code(30, 0)


_SPC3_BODY = SPC3_ALIST.split("\n", 1)[1]


@pytest.mark.parametrize("text", [
    "+3 1\n" + _SPC3_BODY,
    "\x1c\n" + SPC3_ALIST,  # str.strip counts \x1c as blank, bytes.strip does not
    "3\t1\n" + _SPC3_BODY,
    serialize_alist(LdpcCode.from_checks(16, [])),  # m = 0: no row-degree line
], ids=["plus-sign", "separator-line", "tab", "no-checks"])
def test_header_lookup_agrees_with_load(tmp_path, text):
    path = tmp_path / "c.alist"
    path.write_bytes(text.encode("ascii"))
    assert code_length(str(path)) == load_code(str(path))[0].n


def test_a_code_text_is_loaded_once_per_process():
    assert load_code("builtin:r12-n2304")[0] is load_code("builtin:r12-n2304")[0]


def test_a_rewritten_file_is_parsed_again(tmp_path):
    path = tmp_path / "c.alist"
    path.write_text(SPC3_ALIST)
    before = load_code(str(path))[0]
    path.write_text(HAMMING74_ALIST)
    after = load_code(str(path))[0]
    assert after is not before
    assert [c.tolist() for c in after.checks] == [[0, 2, 4, 6], [1, 2, 5, 6], [3, 4, 5, 6]]


def test_a_loaded_code_is_read_only():
    code = load_code("builtin:r12-n128")[0]
    assert isinstance(code.checks, tuple)
    arrays = [*code.checks, code.column_permutation, code.parity_matrix,
              code.slot_var, code.var_slots, code.pad_slots]
    assert not any(a.flags.writeable for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a


def test_a_malformed_file_raises_on_every_load(tmp_path):
    path = tmp_path / "c.alist"
    path.write_text(SPC3_ALIST.replace("1 2 3", "1 2 4"))  # a variable past n = 3
    for _ in range(2):
        with pytest.raises(AlistParseError, match="out of range"):
            load_code(str(path))


@pytest.mark.parametrize("header", ["3", "0 1", "3 -1", "3 x"])
def test_header_lookup_and_load_reject_the_same_header(tmp_path, header):
    path = tmp_path / "c.alist"
    path.write_text(f"{header}\n{_SPC3_BODY}")
    with pytest.raises(ValueError, match="alist header"):
        code_length(str(path))
    with pytest.raises(AlistParseError):
        load_code(str(path))


# sha256 over the shape and bytes of the encoder's permutation, parity map and
# redundant rows; any change to the GF(2) elimination moves every codeword
_ENCODER_DIGESTS = {
    "r12-n128": "05685a84df69b58393dc3550a996bb5d25057b90a2e1c70d3d99dbe43e68f102",
    "r12-n256": "12ec562b82cb0565e936141dc8e916d6da95ea77794eed272cd4f7380191d482",
    "r12-n512": "5427348df788dbbab68c40facaac785b238cf53c49ca2e74062b59c6ddf399cf",
    "r12-n1056": "6e1c42e62d9ccd657ce1630cb1444ed447070f18e7a12c39be5ebe8005c0c3d9",
    "r12-n2304": "3cb20d7a5ed6f3240be89db99d4ebc748c446f0dc247975ee210bf7885315490",
}


@pytest.mark.parametrize("code_id", builtin_code_ids())
def test_builtin_encoder_is_pinned(code_id):
    code = load_code(f"builtin:{code_id}")[0]
    digest = hashlib.sha256()
    for part in (code.column_permutation.astype(np.int64), code.parity_matrix.astype(np.uint8),
                 np.array(code.redundant_checks, dtype=np.int64)):
        digest.update(repr(part.shape).encode())
        digest.update(part.tobytes())
    assert digest.hexdigest() == _ENCODER_DIGESTS[code_id]
