import pytest

from floqtools import hill


def _counted(monkeypatch, name):
    calls = []
    original = getattr(hill, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hill, name, counting)
    return calls


@pytest.fixture
def monodromy_calls(monkeypatch):
    """List that gains one entry per hill.monodromy call made during the test."""
    return _counted(monkeypatch, "monodromy")


@pytest.fixture
def oscillator_block_calls(monkeypatch):
    """List that gains one entry per oscillator_blocks call made through hill."""
    return _counted(monkeypatch, "oscillator_blocks")
