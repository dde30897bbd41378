"""Code references: ``builtin:<id>`` names a bundled alist file, anything else a path.

Both kinds resolve, fit ``--h`` and load the same way.  :func:`code_length`
reads the header alone, so a sweep rejects a bad reference or an unfitting
``--h`` before any frame; only a malformed body waits for :func:`load_code`.
The builtins are rate-1/2 regular (3,6) codes (4-cycle free, full rank) that
``scvamp.codegen.make_regular_code(128, seed=2)`` and ``seed=1`` at 256, 512,
1056 and 2304 rebuild exactly; ``tests/test_codes.py`` rebuilds all five.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from ..denoiser import parse_alist

BUILTIN_CODES = {
    "r12-n128": "r12_n128.alist",
    "r12-n256": "r12_n256.alist",
    "r12-n512": "r12_n512.alist",
    "r12-n1056": "r12_n1056.alist",
    "r12-n2304": "r12_n2304.alist",
}


def builtin_code_ids():
    return sorted(BUILTIN_CODES)


def _resolve(ref):
    """``(file, CSV label)`` of a code reference; the label is the builtin id or the file stem."""
    if not ref.startswith("builtin:"):
        return Path(ref), os.path.splitext(os.path.basename(ref))[0]
    code_id = ref[len("builtin:"):]
    if code_id not in BUILTIN_CODES:
        raise ValueError(f"unknown builtin code {code_id!r}; known: {builtin_code_ids()}")
    return resources.files(__package__).joinpath(BUILTIN_CODES[code_id]), code_id


def code_label(ref):
    return _resolve(ref)[1]


def code_length(ref) -> int:
    """Block length n from the alist header ``n m``, the first non-empty line alone."""
    with _resolve(ref)[0].open("rb") as fh:
        header = next((line.split() for line in fh if line.strip()), [])
    if len(header) != 2 or not all(tok.isdigit() for tok in header) or int(header[0]) < 1:
        raise ValueError(f"code file {ref!r} does not start with an alist header 'n m'")
    return int(header[0])


def load_code(ref):
    """``(code, label)`` of a code reference; a malformed body raises AlistParseError."""
    path, label = _resolve(ref)
    return parse_alist(path.read_text(encoding="ascii")), label
