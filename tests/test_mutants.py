"""Each mutant in `mutants.MUTANTS`, a documented rule broken on a copy of
the tree, is killed by the tests it names. Run with `pytest -m slow`."""

import pytest

import mutants


@pytest.mark.slow
@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(mutant):
    code, output = mutants.run(mutant)
    assert code == 1, f"{mutant.name} survived: pytest exited {code}\n{output}"
