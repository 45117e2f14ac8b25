"""Put the in-repo ``src`` directory on the import path.

The path is made absolute from this file's location, so the tests import the
checked-out package from a plain checkout (no ``pip install``) whatever the
working directory.  It is prepended to ``sys.path`` for the test process and
to ``PYTHONPATH`` for every subprocess a test starts, such as
``python -m nonpaving`` run with ``cwd=tmp_path``.

The ``column_passes`` fixture counts the package's column products V^*V;
``perturbed_family`` is a built family with one block-1 row moved off the
block structure; ``traced_peak`` measures a call's peak of traced memory.
"""

import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@pytest.fixture
def column_passes(monkeypatch):
    """List of the shapes passed to `matrix_core._column_pass`, the one place
    that forms V^*V, wherever a package module binds it, one entry per call."""
    from nonpaving import matrix_core

    original = matrix_core._column_pass
    shapes = []

    def counting(V):
        shapes.append(V.shape)
        return original(V)

    for name, module in list(sys.modules.items()):
        if name.startswith("nonpaving") and getattr(module, "_column_pass", None) is original:
            monkeypatch.setattr(module, "_column_pass", counting)
    return shapes


@pytest.fixture
def perturbed_family():
    """The (2, 3) family with one tail entry of block-1 row 0 moved by 1e-10.

    That is far above rounding for the block-structure check and far below
    the 1e-8 tightness rule, so the family still builds as a
    StackedDftFrame.
    """
    from nonpaving import StackedDftFrame, build_nonpavable_general

    base = build_nonpavable_general(2, 3)
    vectors = np.array(base.vectors)
    vectors[0, -1] += 1e-10
    return StackedDftFrame(vectors, base.layout)


@pytest.fixture
def traced_peak():
    """Function that calls fn() and returns the peak of memory traced by
    tracemalloc during the call, in bytes: arrays made before it and still
    held do not count."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
