import multiprocessing

import pytest

from l1svm import sweeps


@pytest.fixture
def pool_workers():
    """A check that this process's live children are exactly `sweeps._map`'s pool workers.

    It returns their pids; there are at most as many as the pool's size.
    """
    def check() -> list:
        children = sorted(p.pid for p in multiprocessing.active_children())
        pool = sweeps._pool[1]
        assert children == sorted(pool._processes)
        assert 1 <= len(children) <= pool._max_workers
        return children
    return check
