"""The group kernels (encode, decode, translate, apply_matrix, closure,
invariant_core) and min_cover, the exact-cover search, from pure.py.

BACKEND names the implementation; the benchmark records it.
"""

from .pure import (BACKEND, apply_matrix, closure, decode, encode,
                   invariant_core, min_cover, translate)

__all__ = ["BACKEND", "apply_matrix", "closure", "decode", "encode",
           "invariant_core", "min_cover", "translate"]
