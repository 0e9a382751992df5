import pytest

from conftest import within_seconds
from kronsec.errors import DomainError
from kronsec.partitions import partitions_of
from kronsec.permutations import class_word, cycle_notation, cycle_type, perm_of_word


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


@pytest.mark.parametrize("p", [(0, 0, 1), (1, 2), (0, True), (0, 1.0), (0, "1")])
def test_a_tuple_that_is_no_permutation_is_a_domain_error(p):
    # The cycle walk from 1 in (0, 0, 1) never returns to 1; unchecked it
    # grows its cycle list until memory runs out.
    with within_seconds(2):
        with pytest.raises(DomainError, match="not a permutation"):
            cycle_type(p)
        with pytest.raises(DomainError, match="not a permutation"):
            cycle_notation(p)


def test_perm_of_word_takes_only_letters():
    assert perm_of_word(3, [1]) == (1, 0, 2)
    assert perm_of_word(3, (2, 1)) == (2, 0, 1)  # s_2 after s_1: 0 -> 1 -> 2
    for word in ([True], [1.0], ["1"], [0], [3]):
        with pytest.raises(DomainError, match="generator index"):
            perm_of_word(3, word)
    with pytest.raises(DomainError, match="a word is a sequence"):
        perm_of_word(3, 2.5)
    with pytest.raises(DomainError, match="must be an int"):
        perm_of_word(3.0, [1])


@pytest.mark.parametrize("mu", [(1, 2), (True,), (2, 0, 1), (2.0,)])
def test_class_word_takes_only_partitions(mu):
    with pytest.raises(DomainError, match="partition parts"):
        class_word(mu)
