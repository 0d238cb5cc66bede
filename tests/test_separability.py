import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqw.errors import ResourceCapError
from eqw.oracles import simon_canonical_state
from eqw.rng import SplitMix64
from eqw.separability import (
    FACTOR_CAP,
    Bipartition,
    _cuts,
    classify,
    finest_factorization,
    full_separability_fast,
    schmidt_rank,
    sign_block_sizes,
    try_factor,
    wht,
)
from eqw.states import (
    BooleanFunction,
    LinearForm,
    StateVector,
    apply_local_x,
    bv_function,
    make_function,
    state_from_function,
    tensor,
    uniform_state,
)

from conftest import (
    all_sign_states,
    fraction_rank,
    interleave_product,
    naive_wht,
)


def test_bipartition_validation():
    Bipartition(3, (2,))
    Bipartition(3, (3, 1))
    with pytest.raises(ValueError):
        Bipartition(3, ())
    with pytest.raises(ValueError):
        Bipartition(3, (1, 2, 3))
    with pytest.raises(ValueError):
        Bipartition(3, (0,))
    with pytest.raises(ValueError):
        Bipartition(3, (4,))
    with pytest.raises(ValueError):
        Bipartition(3, (1, 1))


def test_try_factor_examples():
    res = try_factor(StateVector(2, (1, -1, -1, 1)), Bipartition(2, (1,)))
    assert res is not None
    assert res[0].amps == (1, -1) and res[1].amps == (1, -1)
    assert try_factor(StateVector(2, (1, 1, 1, -1)), Bipartition(2, (1,))) is None
    ghz = StateVector(3, (1, 0, 0, 0, 0, 0, 0, 1))
    for q in (1, 2, 3):
        assert try_factor(ghz, Bipartition(3, (q,))) is None


def test_try_factor_normalization_and_reassembly():
    # scaled product with a negative leading factor entry
    s = tensor(StateVector(1, (-2, 4)), StateVector(2, (3, 0, 0, 3)))
    res = try_factor(s, Bipartition(3, (1,)))
    assert res is not None
    u, v = res
    assert u.amps == (1, -2)  # content-reduced, leading entry positive
    assert v.amps == (-1, 0, 0, -1)  # carries the sign so the scale stays positive
    prod = tensor(u, v)
    # proportional with a positive rational ratio
    ratios = {(a, b) for a, b in zip(prod.amps, s.amps) if a or b}
    assert all(a * 6 == b for a, b in ratios)


def test_try_factor_middle_subset():
    # factor on a non-contiguous subset: qubits {1, 3} of 3
    u = StateVector(2, (1, -1, 1, 1))  # on qubits 1 and 3
    v = StateVector(1, (1, -1))  # on qubit 2
    amps = [0] * 8
    for x in range(8):
        b1, b2, b3 = (x >> 2) & 1, (x >> 1) & 1, x & 1
        amps[x] = u.amps[(b1 << 1) | b3] * v.amps[b2]
    s = StateVector(3, tuple(amps))
    res = try_factor(s, Bipartition(3, (1, 3)))
    assert res is not None
    assert res[0].amps == u.amps
    assert res[1].amps == v.amps
    assert try_factor(s, Bipartition(3, (1,))) is None


def test_try_factor_rejects_tiny_state():
    with pytest.raises(ValueError):
        try_factor(StateVector(1, (1, 1)), Bipartition(2, (1,)))


def test_finest_factorization_examples():
    fac = finest_factorization(uniform_state(3))
    assert fac.q == 3
    assert fac.block_sizes() == (1, 1, 1)
    fac = finest_factorization(state_from_function(make_function(2, "0001")))
    assert fac.q == 1
    fac = finest_factorization(simon_canonical_state(4, "0110"))
    assert fac.q == 3
    assert fac.block_index_sets() == ((1,), (2, 3), (4,))
    assert dict(fac.blocks)[(2, 3)].amps == (1, 0, 0, 1)


def test_classify_examples():
    rep = classify(state_from_function(bv_function(LinearForm(3, (1, 1, 1)))))
    assert rep.q == 3 and rep.label == "fully-separable"
    rep = classify(state_from_function(make_function(3, "00000001")))
    assert rep.q == 1 and rep.label == "genuinely-multipartite-entangled"
    rep = classify(tensor(StateVector(1, (1, -1)), StateVector(2, (1, 1, 1, -1))))
    assert rep.q == 2 and rep.block_sizes == (1, 2) and rep.label == "biseparable"
    rep = classify(StateVector(1, (2, 1)))
    assert rep.q == 1 and rep.label == "fully-separable"  # single qubit is trivial


def test_classify_label_boundaries():
    rep = classify(tensor(StateVector(1, (1, 1)), StateVector(2, (1, 1, 1, -1))))
    assert rep.q == 2 and rep.label == "biseparable"
    rep = classify(
        tensor(StateVector(1, (1, 1)), tensor(StateVector(1, (1, -1)), StateVector(2, (1, 1, 1, -1))))
    )
    assert rep.q == 3 and rep.label == "q-separable"


def test_finest_factorization_cap():
    with pytest.raises(ResourceCapError):
        finest_factorization(uniform_state(13))
    assert finest_factorization(uniform_state(13), cap=13).q == 13


def test_reassembly_invariant():
    rng = SplitMix64(55)
    for n in range(2, 7):
        for _ in range(40):
            s = state_from_function(BooleanFunction(n, rng.below(1 << (1 << n))))
            fac = finest_factorization(s)
            re = fac.reassemble()
            # equality up to positive scale; sign vectors reassemble exactly
            assert re.amps == s.amps


def test_reassembly_invariant_sparse_and_scaled():
    rng = SplitMix64(56)
    for n in range(2, 6):
        for _ in range(40):
            amps = tuple(rng.below(7) - 3 for _ in range(1 << n))
            if not any(amps):
                continue
            s = StateVector(n, amps)
            fac = finest_factorization(s)
            re = fac.reassemble()
            # cross-multiply: re * k == s * j for positive j/k
            nz = next(i for i, a in enumerate(s.amps) if a)
            j, k = abs(re.amps[nz]), abs(s.amps[nz])
            assert j > 0
            assert all(a * j == b * k for a, b in zip(s.amps, re.amps))


def test_wht_matches_definition_exhaustively():
    for n in (1, 2, 3):
        for _, s in all_sign_states(n):
            assert wht(s) == naive_wht(s.amps)


def test_wht_examples_and_validation():
    assert wht(uniform_state(2)) == [4, 0, 0, 0]
    for n in (2, 3):
        for a in range(1 << n):
            s = state_from_function(bv_function(LinearForm.from_value(n, a)))
            spectrum = wht(s)
            assert spectrum[a] == 1 << n
            assert all(c == 0 for i, c in enumerate(spectrum) if i != a)
    with pytest.raises(ValueError):
        wht(StateVector(1, (1, 0)))


def test_parseval_exhaustive():
    for n in (1, 2, 3):
        for _, s in all_sign_states(n):
            assert sum(c * c for c in wht(s)) == 1 << (2 * n)


def test_full_separability_fast_examples():
    s = state_from_function(bv_function(LinearForm(3, (1, 0, 1))))
    assert full_separability_fast(s) == (LinearForm(3, (1, 0, 1)), 1)
    assert full_separability_fast(s.negate()) == (LinearForm(3, (1, 0, 1)), -1)
    assert full_separability_fast(state_from_function(make_function(2, "0001"))) is None


def test_fast_path_equals_engine_sampled():
    rng = SplitMix64(99)
    per_n = 3334
    for n in (4, 5, 6):
        for _ in range(per_n):
            s = state_from_function(BooleanFunction(n, rng.below(1 << (1 << n))))
            assert (full_separability_fast(s) is not None) == (classify(s).q == n)


def test_local_x_invariance_of_class():
    rng = SplitMix64(123)
    for n in range(2, 7):
        for _ in range(25):
            s = state_from_function(BooleanFunction(n, rng.below(1 << (1 << n))))
            rep = classify(s)
            for q in range(1, n + 1):
                other = classify(apply_local_x(s, q))
                assert other.q == rep.q
                assert other.block_sizes == rep.block_sizes


def test_complement_invariance_exhaustive():
    for n in (2, 3):
        for _, s in all_sign_states(n):
            a = classify(s)
            b = classify(s.negate())
            assert a.q == b.q
            assert a.factorization.block_index_sets() == b.factorization.block_index_sets()


@pytest.mark.parametrize("n", [3, 4])
def test_odd_minus_count_states_fully_entangled(n):
    size = 1 << n
    for m in (1, 3, 5, 7):
        for minus in combinations(range(size), m):
            amps = [1] * size
            for x in minus:
                amps[x] = -1
            assert classify(StateVector(n, tuple(amps))).q == 1


def _oracle_matrix(s: StateVector, subset: tuple[int, ...]) -> list[list[int]]:
    """Reshape at a bipartition, assembled bit by bit from the basis indices."""
    n = s.m
    others = [q for q in range(1, n + 1) if q not in subset]
    matrix = [[0] * (1 << len(others)) for _ in range(1 << len(subset))]
    for x, a in enumerate(s.amps):
        r = 0
        for q in subset:
            r = (r << 1) | ((x >> (n - q)) & 1)
        c = 0
        for q in others:
            c = (c << 1) | ((x >> (n - q)) & 1)
        matrix[r][c] = a
    return matrix


def test_schmidt_rank_against_fraction_oracle():
    rng = SplitMix64(321)
    for n in (2, 3, 4):
        for _ in range(30):
            amps = tuple(rng.below(9) - 4 for _ in range(1 << n))
            if not any(amps):
                continue
            s = StateVector(n, amps)
            for k in range(1, n):
                for subset in combinations(range(1, n + 1), k):
                    p = Bipartition(n, subset)
                    assert schmidt_rank(s, p) == fraction_rank(_oracle_matrix(s, subset))


def _random_entries(rng: SplitMix64, size: int) -> list[int]:
    """Zeros, negatives and entries above 2^64, not all zero."""
    while True:
        out = []
        for _ in range(size):
            kind = rng.below(4)
            if kind == 0:
                out.append(0)
            elif kind == 1:
                out.append(rng.below(7) - 3)
            else:
                out.append((rng.bits(80) + 1) * (1 if kind == 2 else -1))
        if any(out):
            return out


def _primitive(vec: list[int], first_positive: bool) -> tuple[int, ...]:
    g = math.gcd(*vec)
    vec = [x // g for x in vec]
    if first_positive and next(x for x in vec if x) < 0:
        vec = [-x for x in vec]
    return tuple(vec)


def test_try_factor_and_schmidt_rank_on_integer_states_with_zeros():
    rng = SplitMix64(907)
    for n in range(2, 7):
        for _ in range(12):
            amps = _random_entries(rng, 1 << n)
            if rng.below(2):  # a sparser support makes rank-1 cuts likelier
                amps = [a if rng.below(4) == 0 else 0 for a in amps]
            if not any(amps):
                continue
            s = StateVector(n, tuple(amps))
            for k in range(1, n // 2 + 1):
                for subset in combinations(range(1, n + 1), k):
                    p = Bipartition(n, subset)
                    rank = fraction_rank(_oracle_matrix(s, subset))
                    assert schmidt_rank(s, p) == rank
                    assert (try_factor(s, p) is not None) == (rank == 1)


def test_try_factor_returns_primitive_factors_of_planted_products():
    rng = SplitMix64(908)
    for n in range(2, 7):
        for _ in range(20):
            k = 1 + rng.below(n - 1)
            qubits = list(range(1, n + 1))
            rng.shuffle(qubits)
            subset = tuple(sorted(qubits[:k]))
            # zero first entries push the first nonzero basis index off row and column 0
            u_raw = [0] + _random_entries(rng, (1 << k) - 1)
            v_raw = [0] + _random_entries(rng, (1 << (n - k)) - 1)
            u = _primitive(u_raw, first_positive=True)
            v = _primitive(v_raw, first_positive=False)
            for scale in (1, -3):
                amps = tuple(scale * a for a in interleave_product(n, subset, u, v))
                res = try_factor(StateVector(n, amps), Bipartition(n, subset))
                assert res is not None
                assert res[0].amps == u
                assert res[1].amps == (v if scale > 0 else tuple(-x for x in v))


def test_try_factor_support_and_hint_never_change_the_answer():
    rng = SplitMix64(909)
    for n in range(2, 8):
        size = 1 << n
        states = []
        for _ in range(4):
            states.append([1 - 2 * rng.below(2) for _ in range(size)])
            states.append(_random_entries(rng, size))
            sparse = [0] * size
            for _ in range(1 + rng.below(3)):
                sparse[rng.below(size)] = rng.below(7) - 3 or 1
            states.append(sparse)
            k = 1 + rng.below(n - 1)
            qubits = list(range(1, n + 1))
            rng.shuffle(qubits)
            u = _random_entries(rng, 1 << k)
            v = _random_entries(rng, 1 << (n - k))
            states.append(list(interleave_product(n, tuple(sorted(qubits[:k])), u, v)))
        for amps in states:
            s = StateVector(n, tuple(amps))
            support = [x for x in range(size) if amps[x]]
            running = [support[0]]  # carried across cuts, as the sweep does
            for k in range(1, n):
                for subset in combinations(range(1, n + 1), k):
                    p = Bipartition(n, subset)
                    expected = try_factor(s, p)
                    assert try_factor(s, p, support=support) == expected
                    assert try_factor(s, p, support=support, hint=running) == expected
                    # wrong hints: zero entries, the last index, any index at all
                    for x in (support[-1], size - 1, rng.below(size)):
                        hint = [x]
                        assert try_factor(s, p, support=support, hint=hint) == expected
                        if expected is not None:
                            assert hint == [x]


def test_cuts_run_by_size_then_lexicographically_and_are_kept_only_up_to_the_cap():
    for m in range(2, 9):
        # a half-size cut appears once, as the side holding qubit 1
        expected = [c for t in range(1, m // 2 + 1) for c in combinations(range(1, m + 1), t)
                    if 2 * t < m or 1 in c]
        assert [p.subset for p in _cuts(m)] == expected
        assert len(expected) == (1 << (m - 1)) - 1
        assert all(p.rmask == sum(1 << (m - q) for q in p.subset) for p in _cuts(m))
    assert _cuts(FACTOR_CAP) is _cuts(FACTOR_CAP)
    # 4,095 cuts at 13 qubits and 524k at 20 are built as they are used
    assert _cuts(FACTOR_CAP + 1) is not _cuts(FACTOR_CAP + 1)


def test_classify_matches_the_anf_on_few_solution_grover_states():
    # a product state except at a few late entries makes the support walk
    # run to its end on nearly every cut: the sweep's worst case
    rng = SplitMix64(912)
    marked_sets = [{4095}, {0}, {2048}]
    for m in (2, 4):
        marked = set()
        while len(marked) < m:
            marked.add(rng.below(4096))
        marked_sets.append(marked)
    for marked in marked_sets:
        amps = tuple(-1 if x in marked else 1 for x in range(4096))
        table = sum(1 << x for x in marked)
        assert classify(StateVector(12, amps)).block_sizes == sign_block_sizes(12, table)


def test_try_factor_requires_a_rectangular_support():
    # every nonzero entry satisfies the cross-ratio identity against the
    # first one, but the support is not supp(column) x supp(row) on any cut
    for s in (StateVector(2, (1, 1, 1, 0)), StateVector(3, (1, 1, 1, 0, 1, 0, 0, 0))):
        for k in range(1, s.m):
            for subset in combinations(range(1, s.m + 1), k):
                p = Bipartition(s.m, subset)
                assert try_factor(s, p) is None
                assert schmidt_rank(s, p) == 2
        assert classify(s).q == 1


def test_schmidt_rank_known_values():
    bell = StateVector(2, (1, 0, 0, 1))
    assert schmidt_rank(bell, Bipartition(2, (1,))) == 2
    prod = tensor(StateVector(1, (1, 1)), StateVector(1, (1, -1)))
    assert schmidt_rank(prod, Bipartition(2, (1,))) == 1
    ghz = StateVector(3, (1, 0, 0, 0, 0, 0, 0, 1))
    assert schmidt_rank(ghz, Bipartition(3, (1, 2))) == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_factor_iff_schmidt_rank_one(fi):
    s = state_from_function(BooleanFunction(4, fi))
    for subset in [(1,), (2,), (1, 2), (1, 3)]:
        p = Bipartition(4, subset)
        assert (try_factor(s, p) is not None) == (schmidt_rank(s, p) == 1)


def test_sign_block_sizes_equal_the_sweep_exhaustively():
    # every sign vector at n = 1..4, 65,812 in all
    bad = [
        (n, fi)
        for n in range(1, 5)
        for fi, s in all_sign_states(n)
        if sign_block_sizes(n, fi) != finest_factorization(s).block_sizes()
    ]
    assert bad == []


def _planted_signs(rng: SplitMix64, n: int) -> tuple[int, ...]:
    """Random sign vector, split across a random cut (recursively) two times in three."""
    if n == 1 or rng.below(3) == 0:
        fi = rng.bits(1 << n)
        return tuple(1 - 2 * ((fi >> x) & 1) for x in range(1 << n))
    qubits = list(range(1, n + 1))
    rng.shuffle(qubits)
    k = 1 + rng.below(n - 1)
    subset = tuple(sorted(qubits[:k]))
    return interleave_product(n, subset, _planted_signs(rng, k), _planted_signs(rng, n - k))


def test_sign_block_sizes_equal_the_sweep_on_random_and_planted_states():
    rng = SplitMix64(909)
    bad = []
    for n in range(5, 10):
        for _ in range(100):
            fi = rng.bits(1 << n)
            signs = state_from_function(BooleanFunction(n, fi)).amps
            for amps in (signs, _planted_signs(rng, n)):
                packed = sum(1 << x for x, a in enumerate(amps) if a < 0)
                want = finest_factorization(StateVector(n, amps)).block_sizes()
                if sign_block_sizes(n, packed) != want:
                    bad.append((n, amps))
    assert bad == []


@pytest.mark.parametrize("n, connected", [(2, 1), (3, 4), (4, 38), (5, 728)])
def test_quadratic_functions_are_gme_iff_their_graph_is_connected(n, connected):
    # an ANF of degree <= 2 gives a graph state up to local Z, GME iff its
    # graph is connected: 2^(n+1) g(n) functions, with g(n) the connected
    # labelled graphs on n vertices (OEIS A001187)
    monomials = [()] + [(b,) for b in range(n)] + list(combinations(range(n), 2))
    mono_tables = [
        sum(1 << x for x in range(1 << n) if all(x >> b & 1 for b in mono))
        for mono in monomials
    ]
    tables = [0] * (1 << len(monomials))
    for c in range(1, len(tables)):
        low = c & -c
        tables[c] = tables[c ^ low] ^ mono_tables[low.bit_length() - 1]
    gme = sum(sign_block_sizes(n, t) == (n,) for t in tables)
    assert gme == (1 << (n + 1)) * connected


def test_sign_block_sizes_rejects_a_table_wider_than_2_to_the_n():
    assert sign_block_sizes(2, 0b1111) == (1, 1)
    for n, table in ((2, 1 << 4), (2, -1), (0, 0)):
        with pytest.raises(ValueError):
            sign_block_sizes(n, table)
