import collections
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import l1svm
from l1svm import checks, sweeps, theory
from l1svm.model import RngSeed


@pytest.fixture
def workers(monkeypatch):
    return lambda n: monkeypatch.setattr(checks, "cpu_count", lambda: n)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any use of the process pool, and check that no child process appears."""
    def refuse(n):
        raise AssertionError("a check started the process pool")
    monkeypatch.setattr(sweeps, "_executor", refuse)
    before = sorted(p.pid for p in multiprocessing.active_children())
    yield
    assert sorted(p.pid for p in multiprocessing.active_children()) == before


class TestLemma7Threads:
    """The Monte Carlo estimates run on threads of the calling process, one per CPU."""

    def test_results_identical_on_one_and_two_threads(self, workers, no_pool):
        workers(1)
        one = checks.lemma7_suite(n_tuples=5, n_samples=1000)
        workers(2)
        two = checks.lemma7_suite(n_tuples=5, n_samples=1000)
        assert two == one
        assert all(res.passed for res in two)

    def test_unguarded_script_runs_in_one_process(self, tmp_path):
        # a spawned pool would import this script again in each worker, without a guard
        script = tmp_path / "unguarded.py"
        script.write_text("import multiprocessing, resource\n"
                          "from l1svm import checks, sweeps\n"
                          "children = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
                          "checks.cpu_count = sweeps.cpu_count = lambda: 2\n"
                          "results = checks.run_suite('lemma7')\n"
                          "print(all(res.passed for res in results), "
                          "multiprocessing.active_children(), "
                          "resource.getrusage(resource.RUSAGE_CHILDREN) == children)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             env=env, timeout=120)
        assert (out.returncode, out.stdout, out.stderr) == (0, "True [] True\n", "")

    def test_more_threads_than_cpus_lose_no_estimate(self, workers, no_pool):
        # five threads, more than the CPUs, on a short switch interval
        workers(1)
        one = checks.lemma7_suite(n_tuples=12, n_samples=1000)
        workers(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            five = checks.lemma7_suite(n_tuples=12, n_samples=1000)
        finally:
            sys.setswitchinterval(interval)
        assert five == one

    def test_estimates_are_monte_carlo_fa(self, workers, no_pool, monkeypatch):
        # the threads call the shared kernel, whose estimates are monte_carlo_fa's bits
        seen = {}
        kernel = theory._monte_carlo

        def spy(o, n, rng, block, part):
            seen[o] = res = kernel(o, n, rng, block, part)
            return res
        monkeypatch.setattr(theory, "_monte_carlo", spy)
        workers(2)
        checks.lemma7_suite(n_tuples=3, n_samples=1500)
        tuples = checks.sample_overlap_tuples(3)
        assert [seen[o] for o in tuples] == [
            theory.monte_carlo_fa(o, 1500, RngSeed(checks._SEED.base, i + 1))
            for i, o in enumerate(tuples)]

    def test_sample_error_reaches_caller_unchanged(self, workers, no_pool):
        workers(2)
        with pytest.raises(ValueError, match="^need at least 1000 samples$"):
            checks.lemma7_suite(n_tuples=4, n_samples=999)

    def test_thread_error_reaches_caller_unchanged(self, workers, no_pool, monkeypatch):
        kernel = theory._monte_carlo
        third = checks.sample_overlap_tuples(3)[2]

        def fail_on_third(o, n, rng, block, part):
            if o == third:
                raise ArithmeticError("third estimate")
            return kernel(o, n, rng, block, part)
        monkeypatch.setattr(theory, "_monte_carlo", fail_on_third)
        workers(2)
        with pytest.raises(ArithmeticError, match="^third estimate$"):
            checks.lemma7_suite(n_tuples=4, n_samples=1000)

    def test_buffers_allocated_once_per_thread(self, workers, monkeypatch):
        # a thread allocates its t1 block and its part buffer on its first estimate only.
        # Buffers made per estimate peak no higher, yet raised the command's peak RSS by
        # 15 MB: the allocator keeps the freed 8 MB blocks
        allocations = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                allocations.append(threading.get_ident())
                return np.empty(*args, **kwargs)
        monkeypatch.setattr(theory, "np", CountingNumpy())
        workers(2)
        checks.lemma7_suite(n_tuples=8, n_samples=1000)
        per_thread = collections.Counter(allocations)
        assert 1 <= len(per_thread) <= 2 and set(per_thread.values()) == {2}

    def test_threads_do_not_call_monte_carlo_fa(self, workers, monkeypatch):
        # perfbench's tracer wraps monte_carlo_fa with one span stack for all threads, so
        # a call from two threads at once would record a nesting violation
        def refuse(*args, **kwargs):
            raise AssertionError("a lemma7 estimate called monte_carlo_fa")
        monkeypatch.setattr(theory, "monte_carlo_fa", refuse)
        monkeypatch.setattr(l1svm, "monte_carlo_fa", refuse)
        workers(2)
        assert all(res.passed for res in checks.lemma7_suite(n_tuples=4, n_samples=1000))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_buffers_freed_before_the_closed_forms(self, workers, monkeypatch, threads):
        # expected_fa_w loads scipy.special: the 8 MB sample blocks must be gone by then
        held = []
        closed_form = checks.expected_fa_w

        def spy(o):
            held.append(tracemalloc.get_traced_memory()[0])
            return closed_form(o)
        monkeypatch.setattr(checks, "expected_fa_w", spy)
        workers(threads)
        tracemalloc.start()
        try:
            checks.lemma7_suite(n_tuples=2, n_samples=1_000_000)
        finally:
            tracemalloc.stop()
        assert len(held) == 2 and max(held) < 4e6


class TestLemma7Count:
    """The check needs all but 3 of its tuples within 3 standard errors, and at least one."""

    def test_two_tuples_that_all_miss_fail(self, monkeypatch):
        monkeypatch.setattr(theory, "_monte_carlo", lambda o, n, rng, block, part: (100.0, 1e-3))
        [res] = checks.lemma7_suite(n_tuples=2, n_samples=1000)
        assert not res.passed
        assert res.detail.startswith("0/2 tuples within 3 SE (need >= 1)")

    @pytest.mark.parametrize("n_tuples", [0, -1])
    def test_no_tuples_refused(self, n_tuples):
        with pytest.raises(ValueError, match=rf"^need at least 1 tuple, got n_tuples = {n_tuples}$"):
            checks.lemma7_suite(n_tuples=n_tuples, n_samples=1000)


class TestSuiteCounts:
    """Every counted suite refuses a count below 1, which would check nothing."""

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_inputs_refused(self, n):
        with pytest.raises(ValueError, match=rf"^need at least 1 input, got n_inputs = {n}$"):
            checks.projections_suite(n_inputs=n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_thm2_tuples_refused(self, n):
        with pytest.raises(ValueError, match=rf"^need at least 1 tuple, got n_tuples = {n}$"):
            checks.thm2_suite(n_tuples=n)
