"""The bundled codes are what README says they are, and their recorded seeds rebuild them."""

import numpy as np
import pytest

from scvamp.codegen import make_regular_code
from scvamp.codes import builtin_code_ids, load_code


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


# 1056 and 2304 rebuild too (seed 1), but placing their checks takes seconds
@pytest.mark.parametrize("n, seed", [(128, 2), (256, 1), (512, 1)])
def test_recorded_seed_rebuilds_builtin_code(n, seed):
    shipped = load_code(f"builtin:r12-n{n}")[0].checks
    rebuilt = make_regular_code(n, seed=seed).checks
    assert len(rebuilt) == len(shipped)
    for row, (got, want) in enumerate(zip(rebuilt, shipped)):
        np.testing.assert_array_equal(got, want, err_msg=f"check {row}")
