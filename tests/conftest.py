import pytest

from lecalc import engine


@pytest.fixture
def checked_bases(monkeypatch):
    """A standard_basis that re-verifies every basis it returns
    (`engine.verify_basis`), also installed in the engine for the duration
    of a test, so the bases the engine builds on its own way to a colength
    or an elimination are verified too.  Slow, so only the small unit
    tests use it, calling it for their own bases."""
    compute = engine.standard_basis

    def checked(ideal, order):
        return engine.verify_basis(compute(ideal, order))

    monkeypatch.setattr(engine, "standard_basis", checked)
    return checked
