import numpy as np
import pytest

from scvamp.codes import parse_alist
from scvamp.denoiser import LdpcCode
from scvamp.likelihood import likelihood_step
from scvamp.messages import GaussianMessage

HAMMING74_ALIST = """\
7 3
3 4
1 1 2 1 2 2 3
4 4 4
1 0 0
2 0 0
1 2 0
3 0 0
1 3 0
2 3 0
1 2 3
1 3 5 7 0 0 0
2 3 6 7 0 0 0
4 5 6 7 0 0 0
"""

SPC3_ALIST = """\
3 1
1 3
1 1 1
3
1
1
1
1 2 3
"""


@pytest.fixture
def spc3():
    return LdpcCode.from_checks(3, [[0, 1, 2]])


@pytest.fixture
def hamming74():
    return parse_alist(HAMMING74_ALIST)


def component_moments(r, v, y, spec):
    """Posterior mean and second moment of one component from the observation stage."""
    _, post = likelihood_step(GaussianMessage(np.array([float(r)]), v), np.array([float(y)]), spec)
    m1 = float(post.mean[0])
    return m1, post.variance + m1 * m1
