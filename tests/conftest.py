import os

import pytest

# One BLAS thread, set before any test module imports numpy: a BLAS thread
# pool is a thread besides this one, and a process running one never forks
# sweep workers, so the multi-process sweep tests could not run in process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


@pytest.fixture(autouse=True)
def warnings_are_errors_in_children(monkeypatch):
    # pyproject's filterwarnings reaches only the pytest process; the
    # `python -m spinosc` children the tests start read it from the
    # environment instead.  A -W flag on a child's command line still wins.
    # Dev mode adds the ResourceWarning of a file or pipe left unclosed.
    monkeypatch.setenv("PYTHONWARNINGS", "error")
    monkeypatch.setenv("PYTHONDEVMODE", "1")
