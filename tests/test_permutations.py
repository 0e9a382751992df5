import pytest

from kronsec.partitions import partitions_of
from kronsec.permutations import class_word, cycle_type, perm_of_word


@pytest.mark.parametrize("n", range(11))
def test_class_word_has_its_cycle_type_and_least_length(n):
    for mu in partitions_of(n):
        word = class_word(mu)
        assert cycle_type(perm_of_word(n, word)) == mu
        assert len(word) == n - len(mu)


def test_class_word_examples():
    assert class_word((1, 1, 1)) == ()
    assert class_word((3,)) == (1, 2)
    assert class_word((3, 2, 1, 1)) == (1, 2, 4)
    assert class_word((2, 2, 2)) == (1, 3, 5)
