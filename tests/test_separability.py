import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqw import separability
from eqw.errors import ResourceCapError
from eqw.oracles import (
    make_simon_instance,
    simon_canonical_state,
    simon_global_state,
    simon_measure,
)
from eqw.rng import SplitMix64
from eqw.separability import (
    FACTOR_CAP,
    Bipartition,
    _cuts,
    anf_block_sizes,
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
    elimination_rank,
    fraction_rank,
    interleave_product,
    loop_hadamard_all,
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


def test_a_bipartition_of_another_qubit_count_is_refused():
    # a 3-qubit cut of a 4-qubit state would rank a cut of some other state,
    # and a 5-qubit cut would shift by a negative count
    s = StateVector(4, (1, 0, 0, 1) * 4)
    for p in (Bipartition(3, (1,)), Bipartition(5, (1,))):
        for check in (schmidt_rank, try_factor):
            with pytest.raises(ValueError, match=f"^bipartition is for {p.n} qubits, state has 4$"):
                check(s, p)


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
    rep = classify(state_from_function(bv_function(LinearForm(3, 0b111))))
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


def test_wht_matches_definition_sampled():
    rng = SplitMix64(27)
    for n in range(4, 9):
        for _ in range(4):
            s = state_from_function(BooleanFunction(n, rng.below(1 << (1 << n))))
            assert wht(s) == naive_wht(s.amps)


def test_wht_matches_loop_butterfly_in_32_bit_lanes():
    # n = 14 is the last spectrum in 16-bit lanes, n = 15 the first in 32-bit
    rng = SplitMix64(28)
    for n in (14, 15):
        s = state_from_function(BooleanFunction(n, rng.below(1 << (1 << n))))
        assert wht(s) == loop_hadamard_all(s.amps)
        assert sum(c * c for c in wht(s)) == 1 << (2 * n)


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
    s = state_from_function(bv_function(LinearForm(3, 0b101)))
    assert full_separability_fast(s) == (LinearForm(3, 0b101), 1)
    assert full_separability_fast(s.negate()) == (LinearForm(3, 0b101), -1)
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


def _shuffle(rng: SplitMix64, items: list) -> None:
    """In-place Fisher-Yates from the last index down, j = rng.below(i + 1)."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def test_try_factor_returns_primitive_factors_of_planted_products():
    rng = SplitMix64(908)
    for n in range(2, 7):
        for _ in range(20):
            k = 1 + rng.below(n - 1)
            qubits = list(range(1, n + 1))
            _shuffle(rng, qubits)
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


def _refuters(s: StateVector, p: Bipartition, indices) -> list[int]:
    """The indices whose 2x2 minor against the first support index is
    nonzero at the cut, in the order given."""
    a = s.amps
    x0 = next(x for x, v in enumerate(a) if v)
    cmask = (len(a) - 1) ^ p.rmask
    r0, c0 = x0 & p.rmask, x0 & cmask
    return [x for x in indices
            if a[x] * a[x0] != a[(x & p.rmask) | c0] * a[r0 | (x & cmask)]]


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
            _shuffle(rng, qubits)
            u = _random_entries(rng, 1 << k)
            v = _random_entries(rng, 1 << (n - k))
            states.append(list(interleave_product(n, tuple(sorted(qubits[:k])), u, v)))
        for amps in states:
            s = StateVector(n, tuple(amps))
            support = [x for x in range(size) if amps[x]]
            zeros = [x for x in range(size) if not amps[x]] or [support[0]]
            running = []  # carried across cuts, as the sweep does
            for k in range(1, n):
                for subset in combinations(range(1, n + 1), k):
                    p = Bipartition(n, subset)
                    expected = try_factor(s, p)
                    walked = _refuters(s, p, support)[:1]
                    assert try_factor(s, p, support=support) == expected
                    # the walk appends the first refuting support index, and
                    # only when no index already held refutes the cut
                    before = list(running)
                    assert try_factor(s, p, support=support, hint=running) == expected
                    held = _refuters(s, p, before)
                    assert running == before + ([] if held else walked)
                    assert len(set(running)) == len(running)
                    if expected is not None:
                        assert running == before and walked == []
                    # lists of wrong hints: zero entries, repeats, the last
                    # index, x0, which never refutes, and any index at all
                    z = zeros[rng.below(len(zeros))]
                    for hint in ([], [support[0]], [z, z], [support[-1], size - 1],
                                 [rng.below(size) for _ in range(3)] + [z, support[0]]):
                        before = list(hint)
                        assert try_factor(s, p, support=support, hint=hint) == expected
                        held = _refuters(s, p, before)
                        assert hint == before + ([] if held else walked)
                        if expected is not None:
                            assert held == [] and hint == before


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


def _grover_states() -> list[tuple[int, set[int]]]:
    """(n, marked) at n = 10..12 for M = 1..3: the first, middle and last
    index marked alone, and seeded sets that hold 2^(n-1) or not."""
    rng = SplitMix64(912)
    out = []
    for n in (10, 11, 12):
        size = 1 << n
        out += [(n, {0}), (n, {size >> 1}), (n, {size - 1})]
        for m in (2, 3):
            for first in (size >> 1, rng.below(size)):
                marked = {first}
                while len(marked) < m:
                    marked.add(rng.below(size))
                out.append((n, marked))
    return out


def _grover_state(n: int, marked: set[int]) -> StateVector:
    return StateVector(n, tuple(-1 if x in marked else 1 for x in range(1 << n)))


def test_classify_matches_the_anf_on_few_solution_grover_states():
    # a product state except at a few entries makes the support walk run
    # far on nearly every cut: the sweep's worst case
    cases = _grover_states()
    assert {len(marked) for _, marked in cases} == {1, 2, 3}
    assert sum(1 << (n - 1) in marked for n, marked in cases) == 9  # M = 1, 2, 3 at each n
    for n, marked in cases:
        table = sum(1 << x for x in marked)
        assert classify(_grover_state(n, marked)).block_sizes == sign_block_sizes(n, table)


def _pinned_sweep_states() -> list[StateVector]:
    """Seeded states that reach the sweep: random sign vectors at n = 6..10,
    dense integer states with zeros and 80-bit entries at n = 5..8, planted
    blocks of small entries with zeros, and few-solution Grover states."""
    rng = SplitMix64(940)
    states = [StateVector(n, tuple(1 - 2 * rng.below(2) for _ in range(1 << n)))
              for n in range(6, 11)]
    states += [StateVector(n, tuple(_random_entries(rng, 1 << n))) for n in range(5, 9)]
    states += [StateVector(sum(sizes), _planted_blocks(rng, sizes)[1])
               for sizes in ([2, 3, 4], [1, 3, 1, 2], [3, 3, 3], [4, 2, 2, 1], [5, 4])]
    states += [_grover_state(n, marked) for n, marked in _grover_states()[::3]]
    return states


def _try_factor_calls(monkeypatch, states) -> list[int]:
    """try_factor calls, through the module global, to classify each state."""
    counts = []
    real = separability.try_factor

    def counting(s, p, **kwargs):
        counts[-1] += 1
        return real(s, p, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(separability, "try_factor", counting)
        for s in states:
            counts.append(0)
            classify(s)
    return counts


PINNED_CALLS = [31, 63, 127, 255, 511,  # random sign vectors, n = 6..10
                15, 31, 63, 127,  # dense integer states with zeros, n = 5..8
                86, 21, 66, 40, 192,  # planted blocks
                511, 511, 511, 1023, 1023, 2047, 2047]  # Grover states, n = 10..12


class _CountingTuple(tuple):
    """A tuple that counts the entries read through indexing."""

    reads = 0

    def __getitem__(self, i):
        _CountingTuple.reads += 1
        return tuple.__getitem__(self, i)


def test_the_sweep_turns_the_worst_grover_cuts_away_in_a_few_reads(monkeypatch):
    # n = 12 with index 2048 marked is GME, so all 2,047 cuts are tried, and
    # only indices near 2048 refute one: a walk from index 0 reaches them
    # late. Each index that refuted a cut is tried on the next ones first,
    # so the sweep reads 88,024 amplitudes, 43 a cut; with one index held,
    # it read 9,451,492
    amps = _CountingTuple(-1 if x == 2048 else 1 for x in range(4096))
    monkeypatch.setattr(_CountingTuple, "reads", 0)
    assert classify(StateVector(12, amps)).block_sizes == (12,)
    assert 2047 < _CountingTuple.reads < 64 * 2047


def test_the_sweep_tries_the_pinned_cuts(monkeypatch):
    # the cuts the sweep tries on each state, the same as when it held one
    # refuting index: the hint changes how soon a cut is turned away, never
    # which cuts are tried
    assert _try_factor_calls(monkeypatch, _pinned_sweep_states()) == PINNED_CALLS


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


def _small_entries(rng: SplitMix64, size: int) -> list[int]:
    """Entries in -3..3, about half of them zero, not all zero."""
    while True:
        out = [rng.below(7) - 3 if rng.below(2) else 0 for _ in range(size)]
        if any(out):
            return out


def _sum_of_products(rng: SplitMix64, n: int, subset: tuple[int, ...], terms: int,
                     entry) -> StateVector:
    """Sum of ``terms`` products u (x) v across the cut at subset, not all zero."""
    while True:
        amps = [0] * (1 << n)
        for _ in range(terms):
            u = [entry() for _ in range(1 << len(subset))]
            v = [entry() for _ in range(1 << (n - len(subset)))]
            amps = [a + b for a, b in zip(amps, interleave_product(n, subset, u, v))]
        if any(amps):
            return StateVector(n, tuple(amps))


def _sparse_entries(rng: SplitMix64, size: int) -> list[int]:
    """A random support of 1..size/2 points, entries in +-1..+-3."""
    points = list(range(size))
    _shuffle(rng, points)
    amps = [0] * size
    for x in points[:1 + rng.below(size // 2)]:
        amps[x] = (1 + rng.below(3)) * (1 - 2 * rng.below(2))
    return amps


def _assert_rank_matches_elimination(s: StateVector, subsets) -> None:
    for subset in subsets:
        p = Bipartition(s.m, subset)
        assert schmidt_rank(s, p) == elimination_rank(_oracle_matrix(s, p.subset)), subset


def test_schmidt_rank_matches_the_elimination_reference():
    rng = SplitMix64(911)
    sparse_rng = SplitMix64(914)
    cancelled = 0
    for n in range(2, 9):
        if n <= 5:
            subsets = [c for k in range(1, n) for c in combinations(range(1, n + 1), k)]
        else:  # the leading cut of every size, and one scattered cut
            subsets = [tuple(range(1, k + 1)) for k in range(1, n)] + [tuple(range(1, n + 1, 2))]
        for _ in range(6):
            _assert_rank_matches_elimination(StateVector(n, tuple(_small_entries(rng, 1 << n))),
                                             subsets)
            _assert_rank_matches_elimination(
                StateVector(n, tuple(_sparse_entries(sparse_rng, 1 << n))), subsets)
            # one or two sparse products: at their cut, all rows past the
            # first one or two cancel to empty
            planted = subsets[sparse_rng.below(len(subsets))]
            terms = 1 + sparse_rng.below(2)
            s = _sum_of_products(sparse_rng, n, planted, terms,
                                 lambda: (sparse_rng.below(7) - 3) * (sparse_rng.below(3) == 0))
            p = Bipartition(n, planted)
            rank = schmidt_rank(s, p)
            assert rank <= terms
            cancelled += len({x & p.rmask for x in s.nonzero_indices()}) > rank
            _assert_rank_matches_elimination(s, subsets)
    assert cancelled > 20
    # sums of 1-4 rank-1 terms: rank at most the term count at the planted cut
    for n in range(2, 8):
        for terms in range(1, 5):
            k = 1 + rng.below(n - 1)
            qubits = list(range(1, n + 1))
            _shuffle(rng, qubits)
            planted = tuple(sorted(qubits[:k]))
            s = _sum_of_products(rng, n, planted, terms, lambda: rng.below(7) - 3)
            assert schmidt_rank(s, Bipartition(n, planted)) <= terms
            _assert_rank_matches_elimination(s, [planted, (1,), tuple(range(1, n // 2 + 1))])


@pytest.mark.parametrize("n", range(2, 7))
def test_schmidt_rank_of_the_simon_register_cut_matches_the_elimination_reference(n):
    for r in sorted({1, (1 << n) - 1, 1 << (n - 1)}):
        s = simon_global_state(make_simon_instance(n, r, seed=17 * n + r))
        cut = tuple(range(1, n + 1))
        assert schmidt_rank(s, Bipartition(2 * n, cut)) == 1 << (n - 1)
        _assert_rank_matches_elimination(s, [cut, (1, n + 1)])


def _subspace_dim(points: list[int], mask: int) -> int:
    """dim of the part of the subspace listed by ``points`` that lies inside mask."""
    return sum(1 for h in points if not h & ~mask).bit_length() - 1


def test_schmidt_rank_of_cosets_follows_the_stabilizer_rule():
    # c times the indicator of x0 + H, dim H = d, has rank 2^(d - dim H_A -
    # dim H_B) across A|B, H_A the part of H supported inside A (Fattal,
    # Cubitt, Yamamoto, Bravyi & Chuang, quant-ph/0406168)
    rng = SplitMix64(931)
    for _ in range(1500):
        n = 2 + rng.below(9)
        d = rng.below(n + 1)
        basis = _random_basis(rng, n, d)
        s = _coset_state(n, rng.below(1 << n), basis, (1, -1, 2, -3)[rng.below(4)])
        qubits = list(range(1, n + 1))
        _shuffle(rng, qubits)
        p = Bipartition(n, tuple(qubits[:1 + rng.below(n - 1)]))
        h = [0]
        for b in basis:
            h += [x ^ b for x in h]
        full = (1 << n) - 1
        expected = d - _subspace_dim(h, p.rmask) - _subspace_dim(h, full ^ p.rmask)
        assert schmidt_rank(s, p) == 1 << expected, (n, basis, p.subset)


def test_schmidt_rank_with_thirty_digit_entries_matches_the_elimination_reference():
    # four products with entries up to 10^30 at the cut (1..5), summed: the
    # eliminated rows must cancel exactly
    rng = SplitMix64(913)
    big = 10 ** 30
    s = _sum_of_products(rng, 10, (1, 2, 3, 4, 5), 4,
                         lambda: rng.below(2 * big + 1) - big if rng.below(4) else 0)
    assert schmidt_rank(s, Bipartition(10, (1, 2, 3, 4, 5))) == 4
    _assert_rank_matches_elimination(s, [(1, 2, 3, 4, 5), (2, 4, 6, 8, 10), (1, 2)])


def _entangled_factor(rng: SplitMix64, k: int) -> list[int]:
    """Entries in -3..3 with zeros, on k qubits, with rank above 1 at every cut."""
    while True:
        f = _small_entries(rng, 1 << k)
        s = StateVector(k, tuple(f))
        if all(fraction_rank(_oracle_matrix(s, c)) > 1
               for t in range(1, k) for c in combinations(range(1, k + 1), t)):
            return f


def _planted_blocks(rng: SplitMix64, sizes: list[int]) -> tuple[list[tuple[int, ...]], tuple]:
    """Blocks of the given sizes on shuffled qubits, and the product of one
    entangled factor per block, assembled from each basis index's bits."""
    n = sum(sizes)
    qubits = list(range(1, n + 1))
    _shuffle(rng, qubits)
    blocks = [tuple(sorted(qubits[sum(sizes[:i]):sum(sizes[:i + 1])])) for i in range(len(sizes))]
    factors = [_entangled_factor(rng, k) for k in sizes]
    amps = []
    for x in range(1 << n):
        a = 1
        for qs, f in zip(blocks, factors):
            a *= f[sum(((x >> (n - q)) & 1) << (len(qs) - 1 - i) for i, q in enumerate(qs))]
        amps.append(a)
    return sorted(blocks), tuple(amps)


def test_the_sweep_peels_each_block_once_and_skips_cuts_below_the_last_block(monkeypatch):
    calls = []
    real = separability.try_factor

    def recording(s, p, **kwargs):
        res = real(s, p, **kwargs)
        calls.append((s, p, res))
        return res

    monkeypatch.setattr(separability, "try_factor", recording)
    rng = SplitMix64(912)
    for sizes in ([1, 1, 1], [2, 2, 2], [3, 1, 2], [2, 3, 4], [4, 4, 1], [2, 2, 2, 2],
                  [1, 3, 1, 2], [3, 3, 3]):
        for _ in range(3):
            _shuffle(rng, sizes)
            blocks, amps = _planted_blocks(rng, sizes)
            calls.clear()
            fac = finest_factorization(StateVector(len(amps).bit_length() - 1, amps))
            assert list(fac.block_index_sets()) == blocks
            back = fac.reassemble().amps
            x0 = next(x for x, a in enumerate(amps) if a)
            assert back[x0] * amps[x0] > 0
            assert all(back[x0] * a == amps[x0] * b for a, b in zip(amps, back))
            peeled = []
            for s, p, res in calls:
                assert not any(s is f for f in peeled), "a peeled block was swept again"
                assert all(len(p.subset) >= f.m for f in peeled), "a cut below a peeled block"
                if res is not None:
                    peeled.append(res[0])
            assert sorted(f.m for f in peeled) == sorted(sizes)[:-1]


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
    # every sign vector at n = 1..4, 65,812 in all, through one kernel call
    # per n and through the one-table call
    for n in range(1, 5):
        tables = range(1 << (1 << n))
        want = [finest_factorization(s).block_sizes() for _, s in all_sign_states(n)]
        assert list(anf_block_sizes(n, tables)) == want
        assert [sign_block_sizes(n, t) for t in tables] == want


def _planted_signs(rng: SplitMix64, n: int) -> tuple[int, ...]:
    """Random sign vector, split across a random cut (recursively) two times in three."""
    if n == 1 or rng.below(3) == 0:
        fi = rng.bits(1 << n)
        return tuple(1 - 2 * ((fi >> x) & 1) for x in range(1 << n))
    qubits = list(range(1, n + 1))
    _shuffle(rng, qubits)
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


def _sweep_sizes(n: int, table: int) -> tuple[int, ...]:
    return finest_factorization(state_from_function(BooleanFunction(n, table))).block_sizes()


@pytest.mark.parametrize("n", range(4, 13))
def test_anf_block_sizes_equal_the_sweep_over_several_chunks(n):
    # one call over random, planted, all-zero, all-one and single-point
    # tables, two full chunks and a partial third
    lanes = separability._anf_masks(n)[1]
    rng = SplitMix64(2700 + n)
    full = (1 << (1 << n)) - 1
    kinds = [
        lambda: rng.bits(1 << n),
        lambda: sum(1 << x for x, a in enumerate(_planted_signs(rng, n)) if a < 0),
        lambda: 0,
        lambda: full,
        lambda: 1 << rng.below(1 << n),
    ]
    tables = [kinds[i % len(kinds)]() for i in range(2 * lanes + lanes // 2 + 1)]
    assert list(anf_block_sizes(n, iter(tables))) == [_sweep_sizes(n, t) for t in tables]


def test_anf_block_sizes_of_no_tables_is_empty():
    for n in (1, 4, 12):
        assert list(anf_block_sizes(n, [])) == []
    with pytest.raises(ValueError):
        list(anf_block_sizes(0, []))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 12])
def test_anf_block_sizes_rejects_a_wide_table_anywhere_in_a_chunk(n):
    # lanes at n = 1 and 2 are padded to a byte, so a wide table packs and is
    # caught by the padding mask; from n = 3 its lane overflows instead, a
    # machine word up to n = 6 and a byte string above
    lanes = separability._anf_masks(n)[1]
    size = 1 << n
    for bad in (1 << size, (1 << max(8, size + 1)) - 1, -1):
        for at in sorted({0, lanes // 2, lanes - 1, lanes, 2 * lanes - 1}):
            tables = [0] * (2 * lanes)
            tables[at] = bad
            with pytest.raises(ValueError):
                list(anf_block_sizes(n, tables))


def test_anf_block_sizes_keeps_masks_per_n_and_none_above_the_cap():
    # one small entry per n whatever the chunk counts, each mask a chunk's
    # width; a 13-qubit call builds its masks and leaves them behind
    separability._cached_anf_masks.cache_clear()
    for count in (1, 7, 600, 1500):
        list(anf_block_sizes(4, [0b0110] * count))
        list(anf_block_sizes(5, [1] * count))
    info = separability._cached_anf_masks.cache_info()
    assert info.currsize == 2
    _, _, pad, steps, pairs, _ = separability._anf_masks(FACTOR_CAP)
    masks = [pad, pairs] + [m for _, hold, clear in steps for m in (hold, clear)]
    assert max(m.bit_length() for m in masks) <= separability._ANF_CHUNK_BITS
    n = FACTOR_CAP + 1
    assert list(anf_block_sizes(n, [0, 1 << ((1 << n) - 1)])) == [(1,) * n, (n,)]
    assert separability._cached_anf_masks.cache_info() == info


def test_anf_block_sizes_keeps_a_bounded_graph_table():
    # 1,500 quadratic functions on 6 qubits, each with its own graph: the
    # table empties when full and its answers stay those of the sweep
    n = 6
    edges = [sum(1 << x for x in range(1 << n) if x >> b & x >> c & 1)
             for b, c in combinations(range(n), 2)]
    tables = []
    for subset in range(1500):
        table = 0
        for bit, edge in enumerate(edges):
            if subset >> bit & 1:
                table ^= edge
        tables.append(table)
    assert list(anf_block_sizes(n, tables)) == [_sweep_sizes(n, t) for t in tables]
    graphs = separability._cached_anf_masks(n)[-1]
    assert 0 < len(graphs) <= separability._GRAPHS_HELD < len(tables)


def _coset_state(n: int, x0: int, basis: list[int], c: int) -> StateVector:
    """c on the points of x0 + span(basis), 0 elsewhere."""
    points = [x0]
    for b in basis:
        points += [x ^ b for x in points]
    amps = [0] * (1 << n)
    for x in points:
        amps[x] = c
    return StateVector(n, tuple(amps))


def _random_basis(rng: SplitMix64, n: int, d: int) -> list[int]:
    basis, span = [], {0}
    while len(basis) < d:
        v = rng.below(1 << n)
        if v not in span:
            basis.append(v)
            span |= {x ^ v for x in span}
    return basis


def _engine_takes(s: StateVector) -> bool:
    return separability._coset_rows(s.amps, list(s.nonzero_indices())) is not None


def _mismatches_with_the_sweep(monkeypatch, states) -> list[StateVector]:
    """States on which finest_factorization or classify differs from the
    reference sweep: blocks and factor amps against ``_split_blocks`` sorted
    as finest_factorization sorts, report bytes against classify with the
    coset engine turned off."""
    out = []
    for s in states:
        swept = separability._split_blocks(tuple(range(1, s.m + 1)), s,
                                           list(s.nonzero_indices()))
        swept.sort(key=lambda b: b[0][0])
        with monkeypatch.context() as off:
            off.setattr(separability, "_coset_rows", lambda a, support: None)
            reference = classify(s).to_dict()
        if finest_factorization(s).blocks != tuple(swept) or classify(s).to_dict() != reference:
            out.append(s)
    return out


def test_coset_engine_equals_the_sweep_on_random_cosets(monkeypatch):
    # 3,000 cosets x0 + H at n = 2..8 of every dimension d = 0..n; the engine
    # takes those with d >= 1 and leaves basis states (d = 0) to the sweep
    rng = SplitMix64(930)
    states, taken = [], 0
    for _ in range(3000):
        n = 2 + rng.below(7)
        d = rng.below(n + 1)
        s = _coset_state(n, rng.below(1 << n), _random_basis(rng, n, d), (1, -1, 2, -3)[rng.below(4)])
        assert _engine_takes(s) == (d >= 1)
        taken += d >= 1
        states.append(s)
    assert taken > 2000
    assert _mismatches_with_the_sweep(monkeypatch, states) == []


def test_coset_engine_equals_the_sweep_on_every_simon_collapse(monkeypatch):
    states = [simon_measure(make_simon_instance(n, r, seed=5), seed).collapsed
              for n in range(2, 9) for r in range(1, 1 << n) for seed in (0, 1, 2)]
    assert all(map(_engine_takes, states))
    assert _mismatches_with_the_sweep(monkeypatch, states) == []


def test_coset_engine_equals_the_sweep_on_every_affine_subspace(monkeypatch):
    # every coset of every subspace of Z_2^n for n = 1..4, with c = 1 and -2
    states = []
    for n in range(1, 5):
        subspaces = {frozenset({0})}
        for _ in range(n):
            subspaces |= {h | {x ^ v for x in h} for h in subspaces for v in range(1 << n)}
        for h in subspaces:
            cosets = {frozenset(x ^ y for y in h) for x in range(1 << n)}
            for coset in cosets:
                for c in (1, -2):
                    states.append(StateVector(n, tuple(c if x in coset else 0
                                                       for x in range(1 << n))))
    assert len(states) == 2 * (3 + 11 + 51 + 307)  # cosets of all subspaces, n = 1..4
    assert _mismatches_with_the_sweep(monkeypatch, states) == []


def test_coset_engine_shares_its_basis_state_singletons():
    # every basis-state singleton of a collapse is one of the four held
    # one-qubit states, and the blocks equal the sweep's: with r of weight 1
    # and c < 0, the sign lands on the singleton of qubit n
    table = separability._BASIS_QUBITS
    assert {k: f.amps for k, f in table.items()} == {
        (0, 1): (1, 0), (0, -1): (-1, 0), (1, 1): (0, 1), (1, -1): (0, -1)}
    for n, r, x0, c in ((12, 1 << 11, 0b101, -1), (12, 0b111111, 1 << 11, 3), (5, 0b11, 0, 2)):
        s = StateVector.from_terms(n, {x0: c, x0 ^ r: c})
        fac = finest_factorization(s)
        swept = separability._split_blocks(tuple(range(1, n + 1)), s, sorted({x0, x0 ^ r}))
        assert fac.blocks == tuple(sorted(swept, key=lambda b: b[0][0]))
        assert fac.q == n - r.bit_count() + 1
        singletons = [(q, f) for (q, *rest), f in fac.blocks if not rest and not r >> (n - q) & 1]
        assert len(singletons) == n - r.bit_count()
        for q, factor in singletons:
            assert any(factor is table[x0 >> (n - q) & 1, sign] for sign in (1, -1))
        if r.bit_count() == 1 and c < 0:
            assert fac.blocks[-1][1] is table[x0 & 1, -1]


def test_near_coset_states_reach_the_sweep(monkeypatch):
    # a 2^d-point support that is not affine, one amplitude off c, and +-c
    # mixed: the engine turns each away and the sweep factors it
    rng = SplitMix64(931)
    states = []
    for _ in range(300):
        n = 3 + rng.below(6)
        d = 2 + rng.below(n - 1)
        c = (1, -1, 2, -3)[rng.below(4)]
        coset = _coset_state(n, rng.below(1 << n), _random_basis(rng, n, d), c)
        support = list(coset.nonzero_indices())
        outside = [x for x in range(1 << n) if not coset.amps[x]]
        amps = list(coset.amps)
        if outside:  # 2^d - 1 coset points and one more is not affine for d >= 2
            moved = list(amps)
            moved[support[rng.below(len(support))]] = 0
            moved[outside[rng.below(len(outside))]] = c
            states.append(StateVector(n, tuple(moved)))
        off = list(amps)
        off[support[rng.below(len(support))]] = 2 * c
        states.append(StateVector(n, tuple(off)))
        mixed = list(amps)
        for x in support[:1] + [x for x in support[1:] if rng.below(2)]:
            mixed[x] = -c
        if len(set(mixed) - {0}) == 2:
            states.append(StateVector(n, tuple(mixed)))
    assert len(states) > 700
    assert not any(map(_engine_takes, states))
    assert _mismatches_with_the_sweep(monkeypatch, states) == []


def test_coset_states_make_no_rank_1_test_and_all_others_are_swept(monkeypatch):
    calls = []
    real = separability.try_factor

    def recording(s, p, **kwargs):
        calls.append(p)
        return real(s, p, **kwargs)

    monkeypatch.setattr(separability, "try_factor", recording)
    rng = SplitMix64(932)
    cosets = [_coset_state(n, rng.below(1 << n), _random_basis(rng, n, d), c)
              for n in range(2, 10) for d in range(1, n + 1) for c in (1, -1, 3)]
    cosets += [simon_canonical_state(n, r) for n in (9, 12) for r in (1, 0b101, (1 << n) - 1)]
    cosets += [uniform_state(n) for n in range(1, 13)]
    for s in cosets:
        finest_factorization(s)
    assert calls == []
    swept = [
        state_from_function(make_function(3, "00000001")),  # mixed-sign sign vectors
        state_from_function(BooleanFunction(6, rng.below(1 << 64))),
        tensor(StateVector(1, (1, -1)), StateVector(2, (1, 1, 1, -1))),
        StateVector(3, (1, 1, 1, 0, 0, 0, 0, 0)),  # sparse, not a coset
        StateVector(3, (1, 0, 0, 2, 0, 0, 0, 0)),
        StateVector(3, (0, 0, 0, 0, 0, 0, -6, 0)),  # a basis state
    ]
    for s in swept:
        calls.clear()
        finest_factorization(s)
        assert calls, s


def _differential_cuts(m: int) -> list[Bipartition]:
    """Every cut up to 5 qubits; above, the leading cuts {1..k} and the
    scattered ones (odd qubits, even qubits, the first and last qubit)."""
    if m <= 5:
        return list(_cuts(m))
    subsets = [tuple(range(1, k + 1)) for k in range(1, m)]
    subsets += [tuple(range(1, m + 1, 2)), tuple(range(2, m + 1, 2)), (1, m)]
    return [Bipartition(m, subset) for subset in subsets]


def _held_and_dense_mismatches(states) -> list[StateVector]:
    """States held by their support on which a dense-built copy of the same
    amplitudes gives other blocks, factors, report or Schmidt ranks.
    Factorizations stop at the factor cap; ranks run at any size."""
    out = []
    for held in states:
        assert isinstance(held.entries()[0], dict)
        dense = StateVector(held.m, tuple(held.amps))
        assert isinstance(dense.entries()[0], tuple)
        same = all(schmidt_rank(held, p) == schmidt_rank(dense, p)
                   for p in _differential_cuts(held.m))
        if held.m <= FACTOR_CAP:
            a, b = finest_factorization(held), finest_factorization(dense)
            same &= a.blocks == b.blocks and all(
                fa.amps == fb.amps for (_, fa), (_, fb) in zip(a.blocks, b.blocks))
            same &= classify(held).to_dict() == classify(dense).to_dict()
        if not same:
            out.append(held)
    return out


def test_states_held_by_their_support_classify_as_their_dense_copies():
    collapses = [simon_measure(make_simon_instance(n, r, seed=n + r), seed).collapsed
                 for n in range(2, 9) for r in range(1, 1 << n) for seed in (0, 1, 2)]
    assert len(collapses) == 3 * sum((1 << n) - 1 for n in range(2, 9))
    rng = SplitMix64(933)
    sparse = []
    for _ in range(500):
        n = 2 + rng.below(7)
        points = set()
        for _ in range(1 + rng.below(1 << (n - 1))):
            points.add(rng.below(1 << n))
        sparse.append(StateVector.from_terms(
            n, {x: (1 + rng.below(3)) * (1 - 2 * rng.below(2)) for x in points}))
    assert {s.m for s in sparse} == set(range(2, 9))
    registers = [simon_global_state(make_simon_instance(n, 1 + rng.below((1 << n) - 1), seed))
                 for n in range(2, 9) for seed in (0, 1)]
    assert _held_and_dense_mismatches(collapses + sparse + registers) == []
