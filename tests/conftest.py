import os

import pytest

from nstorus import LatticeSpec, get_lattice, operators


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """At the end of the session, stop the convolution's worker processes
    and check that no child process of the session is left: a benchmark
    run that leaves a process running fails."""
    yield
    operators._stop_workers()
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the session left a child process behind: {left}")


@pytest.fixture
def lanes(monkeypatch):
    """Sets the lane count of the convolution calls made next, whatever the
    machine's CPU count and the call's size: lanes(n) runs a call with at
    least n live slices on n lanes. A worker sees only the patches made
    before it was forked, so lanes(n) also stops the workers, and the next
    call that needs them forks them again; the teardown stops the workers
    too, so none that saw the test's patches outlives it."""
    def use(count):
        monkeypatch.setattr(operators, "_LANES", count)
        monkeypatch.setattr(operators, "_LANE_PAIRS", 1)
        operators._stop_workers()
    yield use
    operators._stop_workers()


@pytest.fixture(scope="session")
def ball1():
    return get_lattice(LatticeSpec(1))


@pytest.fixture(scope="session")
def ball2():
    return get_lattice(LatticeSpec(2))


@pytest.fixture(scope="session")
def ball3():
    return get_lattice(LatticeSpec(3))
