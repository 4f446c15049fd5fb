"""Every test starts from empty per-process caches, so that a test that
counts calls or monkeypatches what a cache would skip sees the work done,
whatever ran before it."""

import pytest

from covercalc import _kernels, oracle, rings


@pytest.fixture(autouse=True)
def empty_caches():
    """Empties every cache of covercalc but those test_caches.py exempts,
    and returns them."""
    caches = (rings._factor_literal, oracle._cyclic_block,
              oracle._kernel_table, _kernels._steps, _kernels._periods)
    for cache in caches:
        cache.cache_clear()
    return caches
