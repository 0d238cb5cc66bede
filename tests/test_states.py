import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqw.states as states
from eqw.rng import SplitMix64
from eqw.states import (
    BooleanFunction,
    LinearForm,
    StateVector,
    apply_local_x,
    bv_function,
    complement,
    hadamard_all,
    is_balanced,
    make_function,
    parse_function,
    state_from_function,
    tensor,
    tensor_all,
    uniform_state,
    weight,
)

from conftest import loop_hadamard_all


def test_make_function_basic():
    assert make_function(2, "0000").table == 0b0000
    assert make_function(2, "0110").table == 0b0110
    assert make_function(2, [0, 1, 1, 0]) == make_function(2, "0110")


def test_make_function_rejects_bad_input():
    with pytest.raises(ValueError):
        make_function(1, "011")
    with pytest.raises(ValueError):
        make_function(0, "1")
    with pytest.raises(ValueError):
        make_function(2, "01a0")
    with pytest.raises(ValueError):
        make_function(2, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        BooleanFunction(2, 16)


def test_parse_function_hex():
    # table 0110 has ones at x = 1, 2, so the packed value is 2 + 4 = 6
    assert parse_function(2, "0x6") == make_function(2, "0110")
    assert parse_function(2, "0110") == make_function(2, "0110")
    assert parse_function(3, "0X0F") == make_function(3, "11110000")
    with pytest.raises(ValueError):
        parse_function(1, "0x5")  # needs 3 bits, only 2 available
    with pytest.raises(ValueError):
        parse_function(2, "0xZZ")


def test_bv_function_values():
    assert bv_function(LinearForm(2, 0b00)).bits() == "0000"
    assert bv_function(LinearForm(2, 0b10)).bits() == "0011"
    assert bv_function(LinearForm(2, 0b11)).bits() == "0110"


def test_linear_form_value_roundtrip():
    for n in (1, 2, 3, 4):
        for v in range(1 << n):
            assert LinearForm.from_value(n, v).value == v


def test_state_from_function():
    assert state_from_function(make_function(2, "0000")).amps == (1, 1, 1, 1)
    assert state_from_function(make_function(2, "0110")).amps == (1, -1, -1, 1)
    assert state_from_function(make_function(2, "0001")).amps == (1, 1, 1, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_uniform_state_is_constant_function_state(n):
    assert uniform_state(n).amps == (1,) * (1 << n)
    assert uniform_state(n) == state_from_function(make_function(n, [0] * (1 << n)))


def test_uniform_state_rejects_zero():
    with pytest.raises(ValueError):
        uniform_state(0)


def test_weight_and_balance():
    assert weight(make_function(2, "0000")) == 0
    assert weight(make_function(2, "0110")) == 2
    assert weight(make_function(2, "0001")) == 1
    assert is_balanced(make_function(2, "0011"))
    assert not is_balanced(make_function(2, "0001"))
    assert not is_balanced(make_function(2, "1111"))


def test_complement():
    assert complement(make_function(2, "0011")).bits() == "1100"
    for fi in range(256):
        f = BooleanFunction(3, fi)
        assert complement(complement(f)) == f
    for fi in range(1 << 16):
        f = BooleanFunction(4, fi)
        assert is_balanced(complement(f)) == is_balanced(f)


def test_complement_negates_state_exhaustive_small():
    for n in (1, 2, 3):
        for fi in range(1 << (1 << n)):
            f = BooleanFunction(n, fi)
            assert state_from_function(complement(f)).amps == state_from_function(f).negate().amps


def test_complement_negates_state_sampled_large():
    rng = SplitMix64(2024)
    per_n = 2000
    for n in range(4, 9):
        size = 1 << n
        for _ in range(per_n):
            f = BooleanFunction(n, rng.below(1 << size))
            assert state_from_function(complement(f)).amps == state_from_function(f).negate().amps


def test_plus_minus_counts_track_weight():
    for n in (1, 2, 3):
        for fi in range(1 << (1 << n)):
            f = BooleanFunction(n, fi)
            s = state_from_function(f)
            assert s.plus_count() == (1 << n) - weight(f)
            assert s.minus_count() == weight(f)


def test_balanced_iff_equal_sign_counts():
    for n in (1, 2, 3, 4):
        for fi in range(1 << (1 << n)):
            f = BooleanFunction(n, fi)
            s = state_from_function(f)
            assert is_balanced(f) == (s.plus_count() == s.minus_count())


def test_apply_local_x_examples():
    bell = StateVector(2, (1, 0, 0, 1))
    assert apply_local_x(bell, 1).amps == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        apply_local_x(bell, 3)


amps_nonzero = st.integers(min_value=-3, max_value=3)


def small_states(max_m=4):
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(amps_nonzero, min_size=1 << m, max_size=1 << m).filter(
                lambda xs: any(xs)
            ),
        )
    )


@given(small_states())
def test_apply_local_x_is_involution(mx):
    m, amps = mx
    s = StateVector(m, tuple(amps))
    for q in range(1, m + 1):
        assert apply_local_x(apply_local_x(s, q), q) == s


@given(small_states())
def test_apply_local_x_preserves_multiset(mx):
    m, amps = mx
    s = StateVector(m, tuple(amps))
    for q in range(1, m + 1):
        assert Counter(apply_local_x(s, q).amps) == Counter(s.amps)


def test_tensor_examples():
    assert tensor(StateVector(1, (1, 1)), StateVector(1, (1, -1))).amps == (1, -1, 1, -1)
    assert tensor(StateVector(1, (1, -1)), StateVector(1, (1, -1))).amps == (1, -1, -1, 1)
    assert tensor(uniform_state(1), uniform_state(2)) == uniform_state(3)


@settings(max_examples=60)
@given(
    st.tuples(small_states(2), small_states(2), small_states(2)).filter(
        lambda t: t[0][0] + t[1][0] + t[2][0] <= 6
    )
)
def test_tensor_associative(triple):
    a, b, c = (StateVector(m, tuple(amps)) for m, amps in triple)
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
    assert tensor_all([a, b, c]) == tensor(a, tensor(b, c))


@given(small_states(2), small_states(2))
def test_apply_local_x_commutes_with_tensor(ma, mb):
    a = StateVector(ma[0], tuple(ma[1]))
    b = StateVector(mb[0], tuple(mb[1]))
    for q in range(1, a.m + 1):
        assert tensor(apply_local_x(a, q), b) == apply_local_x(tensor(a, b), q)
    for q in range(1, b.m + 1):
        assert tensor(a, apply_local_x(b, q)) == apply_local_x(tensor(a, b), a.m + q)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        StateVector(2, (1, 1))
    with pytest.raises(ValueError):
        StateVector(0, (1,))


def test_canonical_sign():
    s = StateVector(2, (0, -2, 1, 0))
    assert s.canonical().amps == (0, 2, -1, 0)
    assert s.canonical() == s.negate().canonical()


def test_hadamard_all_matches_loop_butterfly():
    # n = 6 -> 7 moves a {-1, 0, 1} vector from 8-bit to 16-bit lanes
    rng = SplitMix64(25)
    for n in range(1, 14):
        for skip in (0, 1):
            for _ in range(3):
                a = [rng.below(3) - 1 for _ in range(1 << n)]
                before = list(a)
                assert hadamard_all(a, skip) == loop_hadamard_all(a, skip)
                assert a == before


def test_hadamard_all_at_the_edge_of_every_lane_width():
    rng = SplitMix64(26)
    for width in (8, 16, 32, 64):
        for n in range(1, 7):
            for skip in (0, 1):
                top = (1 << width - 1) - 1 >> max(n - skip, 0)
                a = [rng.below(2 * top + 1) - top for _ in range(1 << n)]
                a[rng.below(1 << n)] = rng.below(2) * 2 * top - top
                assert hadamard_all(a, skip) == loop_hadamard_all(a, skip)


def test_hadamard_all_keeps_no_masks_of_a_long_transform():
    a = [1, -1] * (1 << 13)
    before = states._cached_butterfly_masks.cache_info()
    assert hadamard_all(a) == loop_hadamard_all(a)
    assert states._cached_butterfly_masks.cache_info() == before


def test_hadamard_all_refuses_what_a_64_bit_lane_cannot_hold():
    assert hadamard_all([(1 << 62) - 1, 0]) == [(1 << 62) - 1] * 2
    with pytest.raises(ValueError):
        hadamard_all([1 << 62, 0])
    with pytest.raises(ValueError):
        hadamard_all([0, 0, 0, -(1 << 62)], skip=1)
    assert hadamard_all([1 << 61, 0, 0, 0], skip=1) == [1 << 61, 0, 1 << 61, 0]
    with pytest.raises(ValueError):
        hadamard_all([1, -1, 1])
    with pytest.raises(ValueError):
        hadamard_all([])


def _both_forms() -> list[tuple[StateVector, StateVector]]:
    """(held by its support, dense) pairs of the same amplitudes."""
    return [
        (StateVector.from_terms(3, {6: -1, 1: 2}), StateVector(3, (0, 2, 0, 0, 0, 0, -1, 0))),
        (StateVector.from_terms(1, {0: 5, 1: -7}), StateVector(1, (5, -7))),
        (StateVector.from_terms(4, {9: 1}), StateVector(4, tuple(int(x == 9) for x in range(16)))),
    ]


def test_a_state_held_by_its_support_reads_equals_hashes_and_prints_as_its_dense_form():
    for held, dense in _both_forms():
        values, support = held.entries()
        assert isinstance(values, dict) and list(values) == support == sorted(support)
        dense_values, dense_support = dense.entries()
        assert dense_values is dense.amps and dense_support == support
        assert all(values[x] == dense_values[x] for x in support)
        assert held == dense and dense == held and hash(held) == hash(dense)
        assert repr(held) == repr(dense)
        assert held.amps == dense.amps and held.amps is held.amps  # built once, then kept
        assert held.nonzero_indices() == dense.nonzero_indices() == tuple(support)
        assert held.canonical() == dense.canonical()
        assert held.entries()[0] is values  # reading amps does not change the held form
    assert repr(StateVector(1, (1, -1))) == "StateVector(m=1, amps=(1, -1))"
    assert StateVector.from_terms(2, {3: 1}) != StateVector.from_terms(2, {3: -1})
    assert StateVector.from_terms(1, {1: 1}) != StateVector.from_terms(2, {1: 1})
    assert StateVector(1, (1, 0)) != (1, (1, 0))


def test_from_terms_keeps_the_terms_in_ascending_order_and_builds_no_tuple():
    s = StateVector.from_terms(64, {(1 << 64) - 1: 3, 5: -1, 0: 2})
    values, support = s.entries()
    assert support == [0, 5, (1 << 64) - 1] and list(values.values()) == [2, -1, 3]
    assert s.m == 64 and s.nonzero_indices() == (0, 5, (1 << 64) - 1)


def test_both_held_forms_survive_pickle_and_copy():
    for pair in _both_forms():
        for s in pair:
            copies = [pickle.loads(pickle.dumps(s, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.deepcopy(s), copy.copy(s)]
            for c in copies:
                assert c == s and hash(c) == hash(s) and c.m == s.m
                assert type(c.entries()[0]) is type(s.entries()[0])  # the same held form
                assert c.entries()[1] == s.entries()[1]


def test_a_state_is_immutable():
    for pair in _both_forms():
        for s in pair:
            with pytest.raises(AttributeError):
                s.m = 2
            with pytest.raises(AttributeError):
                s.amps = (1, 1)
            with pytest.raises(AttributeError):
                s.extra = 1
