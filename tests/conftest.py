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
