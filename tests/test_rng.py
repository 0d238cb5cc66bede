import pytest

from eqw.rng import SplitMix64

LENGTHS = sorted({0, 1, 2, 3, 4, 5} | {(1 << k) + d for k in range(1, 13) for d in (-1, 1)})


@pytest.mark.parametrize("seed", [0, 7, 0xACCE, (1 << 64) - 1])
def test_shuffle_matches_the_bounded_draw_reference(seed):
    for length in LENGTHS:
        fast, ref = SplitMix64(seed), SplitMix64(seed)
        items = list(range(length))
        fast.shuffle(items)
        expected = list(range(length))
        for i in range(length - 1, 0, -1):
            j = ref.below(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        assert items == expected
        assert fast.next_u64() == ref.next_u64()
