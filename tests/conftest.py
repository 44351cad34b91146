"""Session-wide test set-up.

Some tests start ``python -m s3lab.cli`` children from a temporary working
directory, where a relative ``PYTHONPATH`` entry such as ``src`` resolves to
nothing.  The absolute directory holding the ``s3lab`` the tests imported goes
in front of ``PYTHONPATH``, so every child runs the code under test; entries
already there are kept after it.

BLAS runs on one thread, in the tests and in the CLI children that inherit
the environment, unless the thread variables are already set: the runtime
budgets of the acceptance suite measure the code, not contention between
BLAS threads and other load on the machine.  The pin is set before
``import s3lab`` loads numpy, which reads it once.
"""

import os
from pathlib import Path

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import s3lab  # noqa: E402  (after the pin)

PACKAGE_ROOT = str(Path(s3lab.__file__).resolve().parent.parent)


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", PACKAGE_ROOT, prepend=os.pathsep)
        yield
