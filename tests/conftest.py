import pytest


@pytest.fixture(autouse=True)
def warnings_are_errors_in_children(monkeypatch):
    # pyproject's filterwarnings reaches only the pytest process; the
    # `python -m spinosc` children the tests start read it from the
    # environment instead.  A -W flag on a child's command line still wins.
    # Dev mode adds the ResourceWarning of a file or pipe left unclosed.
    monkeypatch.setenv("PYTHONWARNINGS", "error")
    monkeypatch.setenv("PYTHONDEVMODE", "1")
