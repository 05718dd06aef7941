import contextlib
from functools import reduce
from itertools import count

import numpy as np
import pytest

from qpartial.density import PartialDensityOperator, scale

# Reference forms built with np.kron, independent of the library's leg
# indexing; test modules import them from here. Qubit 0 is the leftmost
# tensor factor.
KET_VECTORS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


def kron_at(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    """The n-qubit tensor product with ``factors[q]`` on qubit q and the
    identity on every other qubit."""
    return reduce(np.kron, [factors.get(q, np.eye(2)) for q in range(n)])


def kron_permuted(block: np.ndarray, targets, n: int) -> np.ndarray:
    """block (x) I on the qubit order (targets, rest), axes permuted back."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    m = np.kron(block, np.eye(2 ** (n - len(targets)))).reshape((2,) * (2 * n))
    axes = list(np.argsort(order))
    return m.transpose(axes + [n + a for a in axes]).reshape(2**n, 2**n)


def ket_projection(ket: str, qubit: int, n: int) -> np.ndarray:
    """The projection onto the event ``qubit in |ket>`` of an n-qubit register."""
    v = KET_VECTORS[ket]
    return kron_at({qubit: np.outer(v, v.conj())}, n)


def geometric_chain(f: PartialDensityOperator):
    """The increasing chain (1 - 2^-n) f, n = 1, 2, ..., element by element
    through ``scale``: the reference for the stacked chain the suites read."""
    for n in count(1):
        yield scale(f, 1.0 - 2.0**-n)


@pytest.fixture
def count_eigensolves(monkeypatch):
    """Context manager factory: inside ``with count_eigensolves() as sizes``,
    ``sizes`` collects the dimension of every matrix passed to numpy's
    Hermitian eigensolvers, in call order."""

    @contextlib.contextmanager
    def counting():
        sizes = []
        with monkeypatch.context() as patch:
            for name in ("eigvalsh", "eigh"):
                solver = getattr(np.linalg, name)

                def counted(a, *args, _solver=solver, **kwargs):
                    sizes.append(np.shape(a)[0])
                    return _solver(a, *args, **kwargs)

                patch.setattr(np.linalg, name, counted)
            yield sizes

    return counting


@pytest.fixture
def count_calls(monkeypatch):
    """Context manager factory: inside ``with count_calls(owner, name) as
    calls``, ``calls`` gets the positional arguments of every call to
    ``owner.name``, in call order."""

    @contextlib.contextmanager
    def counting(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(owner, name, counted)
            yield calls

    return counting


@pytest.fixture
def count_inits(count_calls):
    """Context manager factory: inside ``with count_inits(cls) as calls``,
    ``calls`` gets one entry per run of ``cls.__init__``, the validating
    constructor."""
    return lambda cls: count_calls(cls, "__init__")


@pytest.fixture
def hermitian_bound_pair():
    """States f <= g that each miss Hermitian by 0.9 ``HERMITIAN_TOL``, so
    that g - f misses it by 1.8 ``HERMITIAN_TOL``."""
    f = PartialDensityOperator(np.array([[0.3, 0.1], [0.1 + 0.9e-10, 0.2]]))
    g = PartialDensityOperator(np.array([[0.45, 0.1 + 0.9e-10], [0.1, 0.3]]))
    return f, g
