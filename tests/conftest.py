import pytest

from lecalc import engine
from lecalc.orders import LOCAL


@pytest.fixture
def checked_bases(monkeypatch):
    """A standard_basis that re-verifies every basis it returns
    (`engine.verify_basis`), also installed in the engine for the duration
    of a test, so the bases the engine builds on its own way to an
    elimination are verified too.  A colength reads a block's leading
    exponents without building a basis; for the duration of a test each
    block also builds its basis here, verifies it and checks that its
    leading exponents are the ones read.  Slow, so only the small unit
    tests use it, calling it for their own bases."""
    compute = engine.standard_basis
    read = engine._block_leading_exponents

    def checked(ideal, order):
        return engine.verify_basis(compute(ideal, order))

    def checked_read(variables, gens):
        exps = read(variables, gens)
        names = tuple(gens[0].context.variables[i] for i in sorted(variables))
        restricted = tuple(p.restrict_to(names) for p in gens)
        basis = checked(engine.Ideal(restricted[0].context, restricted), LOCAL)
        assert sorted(exps) == sorted(basis.leading_exponents)
        return exps

    monkeypatch.setattr(engine, "standard_basis", checked)
    monkeypatch.setattr(engine, "_block_leading_exponents", checked_read)
    return checked
