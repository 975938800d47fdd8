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


@pytest.mark.parametrize("test", ["test_generator_rejects_bounds_outside_0_lo_hi", "test_no_such_test[10-9]"])
def test_an_anchor_names_a_test_function_that_exists(test):
    # a renamed test would otherwise leave its mutant to "survive" only under `-m slow`
    mutant = mutants.MUTANTS[0]._replace(tests=(f"tests/test_cli.py::{test}",))
    with pytest.raises(ValueError, match="no test test_"):
        mutants.anchored_text(mutant)
