import pytest

from eqw.rng import KeyedPermutation

SEEDS = [0, 7, 0xACCE, (1 << 64) - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_permutation_is_a_bijection_on_every_input(seed):
    for nbits in range(1, 17):
        p = KeyedPermutation(nbits, seed)
        assert sorted(map(p, range(1 << nbits))) == list(range(1 << nbits)), nbits


def test_keyed_permutation_is_pinned():
    # seeded runs print its values (Simon labels, Grover solutions), so the
    # keying and the rounds are part of the output format
    assert list(map(KeyedPermutation(4, 5), range(16))) == \
        [9, 5, 6, 1, 4, 0, 15, 10, 8, 3, 14, 2, 12, 7, 11, 13]
    assert list(map(KeyedPermutation(64, 0), range(2))) == \
        [2285348678928566881, 6263886238700367407]
    firsts = {tuple(map(KeyedPermutation(12, seed), range(8))) for seed in range(64)}
    assert len(firsts) == 64


def test_keyed_permutation_keys_wide_words():
    # each key takes as many splitmix64 words as its width needs
    p = KeyedPermutation(200, 3)
    outs = {p(k) for k in range(1000)}
    assert len(outs) == 1000 and max(outs) < 1 << 200 and max(outs).bit_length() > 190

