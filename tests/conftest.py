"""Shared fixtures: triples, Fourier complexes, and small meshes.

Session scope keeps the expensive objects (mode complexes, meshes) built
once; everything they feed is read-only.
"""

from __future__ import annotations

import inspect
import sys
import textwrap

import numpy as np
import pytest

from llab.algebra import build_standard_triple
from llab.hyperbolic.mesh import build_disc_mesh, square_patch
from llab.torus import build_fourier_complex


@pytest.fixture(scope="session")
def std1():
    return build_standard_triple(1)


@pytest.fixture(scope="session")
def std2():
    return build_standard_triple(2)


@pytest.fixture(scope="session")
def std3():
    return build_standard_triple(3)


@pytest.fixture(scope="session")
def fc4(std2):
    """T^4 mode complex at cutoff N=1."""
    return build_fourier_complex(2, 1, std2)


@pytest.fixture(scope="session")
def fc6(std3):
    """T^6 mode complex at cutoff N=1."""
    return build_fourier_complex(3, 1, std3)


@pytest.fixture(scope="session")
def small_mesh():
    """Hyperbolic ball, small enough for dense cross-checks."""
    return build_disc_mesh(R=2.0, h=0.25)


@pytest.fixture(scope="session")
def fine_mesh():
    """The mesh used for form-level measurements (theta, cutoffs, decay)."""
    return build_disc_mesh(R=4.0, h=0.15)


@pytest.fixture(scope="session")
def square24():
    """Euclidean unit-square patch for classical spectral oracles."""
    return square_patch(24)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture()
def mutant(monkeypatch):
    """`mutant(module, name, old, new)` puts in, for one test, a copy of the
    function `name` of `module` ("Class.method" for a method) whose source
    has its one occurrence of `old` replaced by `new`.  The copy replaces
    the function at every binding a caller looks it up: its owner, and every
    loaded llab module that imported it."""

    def put(module, name, old, new):
        owner = module
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        func = getattr(owner, attr)
        src = textwrap.dedent(inspect.getsource(func))
        assert src.count(old) == 1, old
        namespace = dict(vars(module))
        exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
        monkeypatch.setattr(owner, attr, namespace[attr])
        if not path:
            for modname, mod in list(sys.modules.items()):
                if modname.partition(".")[0] == "llab" and getattr(mod, attr, None) is func:
                    monkeypatch.setattr(mod, attr, namespace[attr])

    return put
