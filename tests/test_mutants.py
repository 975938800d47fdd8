"""Each mutant in `mutants.MUTANTS`, a documented rule broken on a copy of
the tree, is killed by the tests it names. Run with `pytest -m slow`; the
check that each mutant still matches its rule's code runs by default."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_is_anchored(mutant):
    mutants.anchored_text(mutant)  # raises if the old text or a test file moved


@pytest.mark.slow
@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(mutant):
    code, output = mutants.run(mutant)
    assert code == 1, f"{mutant.name} survived: pytest exited {code}\n{output}"
