import os
import signal
import subprocess
import sys

import pytest

import hypchrom
from hypchrom.augment import AugmentConfig, grow_pipeline, phase_augment
from hypchrom.geometry import build_g9

#: CPU seconds one test may use; the slowest, acceptance criterion 8, takes
#: about 12 s
CPU_BUDGET_S = 120


class CPUBudgetExceeded(Exception):
    """A test used more CPU time than its budget."""


@pytest.fixture
def cpu_budget():
    return CPU_BUDGET_S


@pytest.fixture(autouse=True)
def cpu_guard(cpu_budget):
    """Fail a test that runs past its CPU budget, so a search that never ends
    fails there instead of holding the run.  The virtual timer counts this
    process's user CPU time and signals SIGVTALRM, so it leaves alone the
    SIGALRM that test_killed_worker_raises_and_ends_pool arms; forked
    workers do not inherit it."""

    def expired(signum, frame):
        raise CPUBudgetExceeded(f"test used more than {cpu_budget} s of CPU time")

    previous = signal.signal(signal.SIGVTALRM, expired)
    signal.setitimer(signal.ITIMER_VIRTUAL, cpu_budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


@pytest.fixture(scope="session")
def fresh_python():
    """run(code): the stdout of code run with -W error in a new interpreter
    that imports hypchrom from this tree, so that nothing done in the test
    process before can reach it."""
    src = os.path.dirname(os.path.dirname(hypchrom.__file__))

    def run(code):
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture(scope="session")
def g9():
    return build_g9()


@pytest.fixture(scope="session")
def reference_cfg():
    return AugmentConfig.reference()


@pytest.fixture(scope="session")
def g28(g9, reference_cfg):
    return phase_augment(g9, 2, cfg=reference_cfg, phase_index=1)


@pytest.fixture(scope="session")
def g42(g28, reference_cfg):
    return phase_augment(g28, 3, cfg=reference_cfg, phase_index=2)


@pytest.fixture(scope="session")
def pipeline(g9, reference_cfg):
    """All phase outputs of the default growth schedule."""
    return grow_pipeline(g9, cfg=reference_cfg)
