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

``work_calls`` spies on the first work of every scan, so a test can tell a
refusal made before any work from one made after.
"""

import importlib
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


# the first work of each scan and of cg-table: its plan, sample, packet,
# quartic or table
WORK_FUNCTIONS = (("bilinear", "sampling_plan"), ("lattice", "annulus_measures"),
                  ("lattice", "count_quadric_batch"), ("lattice", "count_hyperbola_batch"),
                  ("lattice", "setB_measures"), ("strichartz", "sample_slab_packet"),
                  ("strichartz", "_weighted_quartic"), ("strichartz", "sparse_packet"),
                  ("clebsch", "cg_decompose"))


class WorkCalls(list):
    """The names of the spied work functions called, in order."""

    class Started(Exception):
        """Raised by a spied work function once its call is recorded."""


@pytest.fixture
def work_calls(monkeypatch):
    """Replace every work function of ``WORK_FUNCTIONS`` with a spy that
    records its name and raises ``WorkCalls.Started``, so nothing runs past
    a missing check; a refusal before any work leaves the list empty."""
    calls = WorkCalls()

    def spy(name):
        def started(*args, **kwargs):
            calls.append(name)
            raise WorkCalls.Started(name)
        return started
    for module, name in WORK_FUNCTIONS:
        monkeypatch.setattr(importlib.import_module(f"s3lab.{module}"), name, spy(name))
    return calls
