"""Bundled rate-1/2 regular (3,6) LDPC codes in alist form.

Generated once with :mod:`scvamp.codegen` (4-cycle free, full rank) and
shipped as package data; user-supplied alist files are accepted everywhere a
builtin id is.  ``make_regular_code(128, seed=2)`` and ``seed=1`` at 256,
512, 1056 and 2304 rebuild the shipped checks exactly.
"""

from __future__ import annotations

from importlib import resources

from ..denoiser import LdpcCode, parse_alist

BUILTIN_CODES = {
    "r12-n128": "r12_n128.alist",
    "r12-n256": "r12_n256.alist",
    "r12-n512": "r12_n512.alist",
    "r12-n1056": "r12_n1056.alist",
    "r12-n2304": "r12_n2304.alist",
}


def builtin_code_ids():
    return sorted(BUILTIN_CODES)


def builtin_code_file(code_id):
    """The packaged alist file of a builtin id; ValueError on an unknown id."""
    if code_id not in BUILTIN_CODES:
        raise ValueError(f"unknown builtin code {code_id!r}; known: {builtin_code_ids()}")
    return resources.files(__package__).joinpath(BUILTIN_CODES[code_id])


def builtin_code_length(code_id) -> int:
    """Block length n of a builtin code, read from its alist header line alone."""
    with builtin_code_file(code_id).open("r", encoding="ascii") as fh:
        return int(fh.readline().split()[0])


def load_builtin(code_id) -> LdpcCode:
    return parse_alist(builtin_code_file(code_id).read_text("ascii"))
