import pytest


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty moment row store for the test's thread, as at the start of a process:
    for tests that count the work of one walk, which rows of earlier walks would cut."""
    from wsvie import quad

    monkeypatch.setattr(quad, "_STORE", quad._RowStore(0))
