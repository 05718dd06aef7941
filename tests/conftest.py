import contextlib

import numpy as np
import pytest


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
