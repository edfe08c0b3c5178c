import multiprocessing

import pytest

from l1svm import sweeps


@pytest.fixture
def pool_workers():
    """A check that this process's live children are exactly `sweeps._map`'s pool workers.

    It returns their pids; there are at most `_workers()` of them.
    """
    def check() -> list:
        children = sorted(p.pid for p in multiprocessing.active_children())
        assert children == sorted(sweeps._pool[2]._processes)
        assert 1 <= len(children) <= sweeps._workers()
        return children
    return check
