"""Test-session settings.

BLAS runs on one thread for the whole session, as in the CLI and the
benchmark workers, so results that depend on the BLAS reduction order do
not vary with the machine's core count. The variables take effect only if
set before numpy is first imported, and pytest loads this file before any
test module. A value set outside the session wins.

pytest puts ``src`` on this process's import path (pyproject.toml); it goes
on PYTHONPATH as well, so that the ``python -m symcov.cli`` child processes
some tests start import the same sources.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
