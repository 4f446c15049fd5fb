"""Kernel backend selection.

The group kernels (encode, decode, translate, apply_matrix, closure,
invariant_core) come from the compiled extension (covercalc._kernels._fast)
when it was built, otherwise from the pure-Python module; both give
bit-identical results.  Set COVERCALC_KERNEL=pure to force the fallback.

min_cover, the exact-cover search, has one implementation for both
backends: the Python search in pure.py, with orbital branching when the
caller supplies symmetries.
"""

import os

from . import pure

_impl = pure
if os.environ.get("COVERCALC_KERNEL", "").lower() != "pure":
    try:
        from . import _fast as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = pure

BACKEND = _impl.BACKEND

encode = _impl.encode
decode = _impl.decode
translate = _impl.translate
apply_matrix = _impl.apply_matrix
closure = _impl.closure
invariant_core = _impl.invariant_core
min_cover = pure.min_cover


def load(name: str):
    """Fetch a backend module by name ('pure' or 'c'), for tests."""
    if name == "pure":
        return pure
    if name in ("c", "fast"):
        from . import _fast
        return _fast
    raise ValueError(f"unknown kernel backend {name!r}")
