"""Property tests: truth-table formats against per-bit definitions, and
planted products against the factorization engine."""
from hypothesis import given, settings
from hypothesis import strategies as st

from eqw.separability import finest_factorization, sign_block_sizes
from eqw.states import (
    BooleanFunction,
    LinearForm,
    StateVector,
    bv_function,
    complement,
    make_function,
    parse_function,
    state_from_function,
    weight,
)

from conftest import interleave_product

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def tables(draw):
    """(n, packed table) at n = 1..8, with the empty, full and top-bit tables."""
    n = draw(st.integers(1, 8))
    size = 1 << n
    top = 1 << (size - 1)
    table = draw(st.one_of(
        st.sampled_from([0, (1 << size) - 1, top]),
        st.integers(top, (1 << size) - 1),
        st.integers(0, (1 << size) - 1),
    ))
    return n, table


@PROPERTY
@given(tables())
def test_formats_round_trip_against_the_per_bit_definition(nt):
    n, table = nt
    ref = [(table >> x) & 1 for x in range(1 << n)]
    f = BooleanFunction(n, table)
    assert f.bits() == "".join(map(str, ref))
    assert [f(x) for x in range(1 << n)] == ref
    assert make_function(n, f.bits()) == f
    assert make_function(n, ref) == f
    assert make_function(n, tuple(ref)) == f
    assert parse_function(n, hex(f.table)) == f
    assert parse_function(n, f.bits()) == f
    assert state_from_function(f).amps == tuple(1 - 2 * b for b in ref)
    assert weight(f) == sum(ref)
    assert [complement(f)(x) for x in range(1 << n)] == [1 - b for b in ref]


@PROPERTY
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_parity_tables_against_the_per_bit_definition(na):
    n, a = na
    f = bv_function(LinearForm.from_value(n, a))
    assert f.bits() == "".join(str((a & x).bit_count() & 1) for x in range(1 << n))


ENTRIES = {
    "signs": st.sampled_from([1, -1]),
    "small": st.integers(-3, 3),
    "huge": st.one_of(
        st.just(0), st.integers(2**64 + 1, 2**80), st.integers(-(2**80), -(2**64) - 1)
    ),
}


@st.composite
def planted_products(draw):
    """(n, subset, amplitudes) of a product u (x) v with u on the subset's qubits."""
    n = draw(st.integers(2, 7))
    subset = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]

    def factor(k):
        return tuple(draw(st.lists(entry, min_size=1 << k, max_size=1 << k).filter(any)))

    u, v = factor(len(subset)), factor(n - len(subset))
    return n, subset, interleave_product(n, subset, u, v)


@PROPERTY
@given(planted_products())
def test_planted_products_factor_no_coarser_than_planted(planted):
    n, subset, amps = planted
    fac = finest_factorization(StateVector(n, amps))
    for qubits, _ in fac.blocks:
        assert set(qubits) <= set(subset) or set(qubits).isdisjoint(subset)
    back = fac.reassemble().amps
    x0 = next(x for x, a in enumerate(amps) if a)
    assert back[x0] * amps[x0] > 0
    assert all(back[x0] * a == amps[x0] * b for a, b in zip(amps, back))
    if all(a in (1, -1) for a in amps):
        table = sum(1 << x for x, a in enumerate(amps) if a < 0)
        assert fac.block_sizes() == sign_block_sizes(n, table)
