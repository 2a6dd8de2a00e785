import pytest

from floqtools import hill


@pytest.fixture
def monodromy_calls(monkeypatch):
    """List that gains one entry per hill.monodromy call made during the test."""
    calls = []
    original = hill.monodromy

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hill, "monodromy", counting)
    return calls
