import os
from concurrent.futures.process import _RemoteTraceback

import pytest

from l1svm import checks, sweeps

SMALL_SUITES = {
    "lemma7": lambda: checks.lemma7_suite(n_tuples=4, n_samples=1000),
    "projections": lambda: checks.projections_suite(n_inputs=4),
}


class TestCheckPool:
    """The Monte Carlo and grid-oracle calls run on `sweeps._map`; `_workers` picks the path."""

    @pytest.fixture
    def workers(self, monkeypatch):
        return lambda n: monkeypatch.setattr(sweeps, "_workers", lambda: n)

    @pytest.mark.parametrize("suite", sorted(SMALL_SUITES))
    def test_results_identical_in_process_and_pooled(self, suite, workers, pool_workers):
        environ = dict(os.environ)
        workers(1)
        one = SMALL_SUITES[suite]()
        workers(2)
        two = SMALL_SUITES[suite]()
        assert two == one
        assert all(res.passed for res in two)
        pool_workers()
        assert dict(os.environ) == environ  # the one-thread BLAS settings are undone

    def test_worker_error_reaches_caller_unchanged(self, workers, pool_workers):
        workers(2)
        with pytest.raises(ValueError, match="^need at least 1000 samples$") as info:
            checks.lemma7_suite(n_tuples=4, n_samples=999)
        assert isinstance(info.value.__cause__, _RemoteTraceback)  # raised in a worker
        pool_workers()
