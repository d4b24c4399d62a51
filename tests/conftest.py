"""Test-session settings.

BLAS runs on one thread for the whole session, as in the CLI and the
benchmark workers, so results that depend on the BLAS reduction order do
not vary with the machine's core count. The variables take effect only if
set before numpy is first imported, and pytest loads this file before any
test module. A value set outside the session wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
