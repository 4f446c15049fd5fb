"""Every test starts from empty per-process caches, so that a test that
counts calls or monkeypatches what a cache would skip sees the work done,
whatever ran before it."""

import pytest

from covercalc import _kernels, oracle, rings


@pytest.fixture(autouse=True)
def empty_caches():
    for cache in (rings._factor_literal, oracle._cyclic_block,
                  oracle._residue_tables, _kernels._steps):
        cache.cache_clear()
