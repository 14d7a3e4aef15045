import ctypes
import threading

import numpy as np
import pytest

from ktsecret import cs, net


def crandn(rng, shape):
    """Standard complex Gaussian array."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that leaves a non-daemon thread it started still running:
    a pool not shut down, or a solver thread not joined."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and not t.daemon]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def float64_net(monkeypatch):
    """Runs the network's activations and GEMMs in float64, the path the
    finite-difference oracles check; the float32 default is bounded against it."""
    monkeypatch.setattr(net, "ACT_DTYPE", np.float64)


@pytest.fixture
def complex128_cs(monkeypatch):
    """Runs the CS solver's workspace in complex128, the path the tests that pin
    it at float64 precision check; the complex64 default is bounded against it."""
    monkeypatch.setattr(cs, "WORK_DTYPE", np.complex128)


def _openblas(symbol: str):
    """scipy_openblas_<symbol>64_ of numpy's bundled scipy-openblas; skips without it."""
    from numpy.linalg import _umath_linalg  # linked against numpy's BLAS

    fn = getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_openblas_{symbol}64_", None)
    if fn is None:
        pytest.skip("numpy's bundled scipy-openblas not found")
    return fn


def openblas_threads():
    """get_num_threads of numpy's bundled scipy-openblas; skips without it."""
    get = _openblas("get_num_threads")
    get.argtypes, get.restype = [], ctypes.c_int
    return get


def at_1_and_4_blas_threads(compute) -> list:
    """[compute() with OpenBLAS at 1 thread, compute() at 4 threads]; the
    previous count is restored after. OpenBLAS splits work by its thread
    count, not by the cores, so 4 threads partition sums as on 4 cores."""
    get, set_n = openblas_threads(), _openblas("set_num_threads")
    set_n.argtypes, set_n.restype = [ctypes.c_int], None
    before = get()
    results = []
    try:
        for n in (1, 4):
            set_n(n)
            results.append(compute())
    finally:
        set_n(before)
    return results
