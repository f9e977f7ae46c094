"""The mutant catalogue of `mutants.py` still applies to the tree; no mutant runs here."""

from mutants import DIGEST, MUTANTS, ROOT, named_tests_exist


def test_each_mutant_applies_to_the_tree():
    # a refactor that moves a mutant's old text updates the catalogue, as it
    # updates a pin: each old text occurs exactly once in its file, and each
    # test named to kill the mutant exists
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS) >= 55
    for mutant in MUTANTS:
        assert (ROOT / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.killers, mutant.name
        assert named_tests_exist(mutant, ROOT), mutant.name
    assert any(DIGEST in mutant.killers for mutant in MUTANTS)
