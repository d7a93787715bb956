import pytest

from aded import metrics


@pytest.fixture
def diagnostic_calls(monkeypatch):
    """Counts the calls of ``aded.metrics.diversity`` and ``aded.metrics.fdc``."""
    calls = {"diversity": 0, "fdc": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(metrics, name, counted(name, getattr(metrics, name)))
    return calls


@pytest.fixture(autouse=True)
def out_dir_env(monkeypatch, tmp_path_factory):
    """Points ``ADED_OUT`` at a temporary directory, so a command given no
    ``out`` writes its artifacts there and never into the working directory."""
    monkeypatch.setenv("ADED_OUT", str(tmp_path_factory.mktemp("aded-out")))
