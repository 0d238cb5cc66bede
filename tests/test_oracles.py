import json
import math
from collections import Counter

import pytest

from eqw import oracles
from eqw.errors import ResourceCapError, TargetEntanglementError
from eqw.oracles import (
    GLOBAL_STATE_CAP,
    CosetLabels,
    SimonInstance,
    _split_register_target,
    coset_index,
    coset_representative,
    dj_oracle_pipeline,
    make_simon_instance,
    prepare_dj_state,
    simon_canonical_state,
    simon_global_state,
    simon_measure,
)
from eqw.rng import SplitMix64
from eqw.separability import Bipartition, classify, schmidt_rank
from eqw.states import (BooleanFunction, StateVector, apply_local_x, make_function,
                        state_from_function)

from conftest import fraction_rank


def test_pipeline_single_qubit_kickback():
    assert prepare_dj_state(make_function(1, "01")).amps == (1, -1)


def test_pipeline_matches_direct_construction_n2():
    f = make_function(2, "0110")
    assert prepare_dj_state(f).amps == (1, -1, -1, 1)


def test_pipeline_sampled_large_n():
    rng = SplitMix64(7)
    for n in range(4, 9):
        for _ in range(200):
            f = BooleanFunction(n, rng.below(1 << (1 << n)))
            register, target = dj_oracle_pipeline(f)
            assert register.amps == state_from_function(f).amps
            assert target.amps == (1, -1)


def test_pipeline_sampled_every_n_to_12():
    rng = SplitMix64(11)
    for n in (*range(1, 4), *range(9, 13)):
        for _ in range(40):
            f = BooleanFunction(n, rng.below(1 << (1 << n)))
            register, target = dj_oracle_pipeline(f)
            assert register.amps == state_from_function(f).amps
            assert target.amps == (1, -1)


def test_pipeline_runs_the_hadamard_layer_once_per_size_and_keeps_no_long_one(monkeypatch):
    # the layer of n = 12 has 2^13 entries and is kept; that of n = 13 is
    # built per call. The oracle's swaps never reach a kept layer
    lengths = []
    real = oracles.hadamard_all

    def counting(a, skip=0):
        lengths.append(len(a))
        return real(a, skip)

    monkeypatch.setattr(oracles, "hadamard_all", counting)
    monkeypatch.setattr(oracles, "_DJ_LAYERS", {})
    rng = SplitMix64(13)
    for n in (3, 5, 12, 13, 3, 5, 12, 13):
        for table in (0, (1 << (1 << n)) - 1, rng.below(1 << (1 << n))):
            f = BooleanFunction(n, table)
            register, target = dj_oracle_pipeline(f)
            assert register.amps == state_from_function(f).amps
            assert target.amps == (1, -1)
    assert lengths == [16, 64, 1 << 13] + [1 << 14] * 6
    assert sorted(oracles._DJ_LAYERS) == [4, 6, 13]


def test_target_split_error_is_reachable():
    # |00> + |11> on (register, target) does not factor
    entangled = StateVector(2, (1, 0, 0, 1))
    with pytest.raises(TargetEntanglementError):
        _split_register_target(entangled)
    # wrong target factor: |0...> tensor (+1, +1)
    wrong = StateVector(2, (1, 1, 0, 0))
    with pytest.raises(TargetEntanglementError):
        _split_register_target(wrong)


def test_make_simon_instance_forced_cosets():
    inst = make_simon_instance(2, "11", seed=0)
    assert inst.table[0] == inst.table[3]
    assert inst.table[1] == inst.table[2]
    assert inst.table[0] != inst.table[1]


def test_make_simon_instance_deterministic():
    a = make_simon_instance(3, "101", seed=9)
    b = make_simon_instance(3, "101", seed=9)
    assert a == b
    c = make_simon_instance(3, "101", seed=10)
    assert c.table != a.table  # the two seeds key different permutations


def test_make_simon_instance_two_to_one():
    inst = make_simon_instance(4, "0101", seed=3)
    counts = Counter(inst.table)
    assert set(counts.values()) == {2}
    assert len(counts) == 8
    for out in counts:
        x, y = (z for z in range(16) if inst.table[z] == out)
        assert x ^ y == inst.r


def test_make_simon_instance_rejects_bad_period():
    with pytest.raises(ValueError):
        make_simon_instance(3, "000", seed=0)
    with pytest.raises(ValueError):
        make_simon_instance(1, "1", seed=0)
    with pytest.raises(ValueError):
        make_simon_instance(3, 8, seed=0)


def test_simon_instance_validation_catches_corruption():
    inst = make_simon_instance(3, "110", seed=1)
    bad = list(inst.table)
    bad[0] = (bad[0] + 1) % 8
    with pytest.raises(ValueError, match="breaks periodicity at input 0"):
        SimonInstance(inst.n, inst.r, tuple(bad))
    # each fault is reported at its first input, whatever its kind
    bad = list(inst.table)
    bad[3] = bad[3 ^ inst.r] = 8
    bad[5] = (bad[5] + 1) % 8
    with pytest.raises(ValueError, match="output 8 is not an 3-bit value"):
        SimonInstance(inst.n, inst.r, tuple(bad))
    bad[1] = (bad[1] + 1) % 8
    with pytest.raises(ValueError, match="breaks periodicity at input 1"):
        SimonInstance(inst.n, inst.r, tuple(bad))
    # periodic and in range, but input 1's coset reuses input 0's output
    bad = list(inst.table)
    bad[1] = bad[1 ^ inst.r] = bad[0]
    with pytest.raises(ValueError, match=f"output {bad[0]} is shared beyond its period coset"):
        SimonInstance(inst.n, inst.r, tuple(bad))


def test_coset_representative_is_the_kth_ascending_representative():
    for n in range(2, 7):
        for r in range(1, 1 << n):
            reps = [x for x in range(1 << n) if x < x ^ r]
            assert [coset_representative(r, k) for k in range(len(reps))] == reps


def test_coset_index_inverts_coset_representative():
    for n in range(2, 7):
        for r in range(1, 1 << n):
            for x in range(1 << n):
                k = coset_index(r, x)
                assert coset_index(r, x ^ r) == k
                assert coset_representative(r, k) == min(x, x ^ r)


@pytest.mark.parametrize("n", range(2, 15))
def test_keyed_instances_pass_the_full_table_validation(n):
    for r in sorted({1, 1 << (n - 1), (1 << n) - 1, 0b1011 % (1 << n) or 3, (1 << n) - 2}):
        inst = make_simon_instance(n, r, seed=n * 31 + r)
        assert isinstance(inst.table, CosetLabels)
        table = tuple(inst.table)
        assert SimonInstance(n, r, table) == inst
        assert sorted(Counter(table).values()) == [2] * (1 << (n - 1))


def test_a_keyed_instance_does_no_exponential_work():
    r = 0x9E3779B97F4A7C15
    inst = make_simon_instance(64, r, seed=5)
    rng = SplitMix64(64)
    xs = [rng.bits(64) for _ in range(200)]
    assert all(inst.table[x] == inst.table[x ^ r] for x in xs)
    labels = {inst.table[x] for x in xs}
    assert len(labels) == len({min(x, x ^ r) for x in xs})
    assert inst.table[-1] == inst.table[(1 << 64) - 1]
    with pytest.raises(IndexError):
        inst.table[1 << 64]


def test_a_keyed_instance_equals_and_hashes_as_its_reload():
    for n, r, seed in [(2, "11", 0), (3, "110", 5), (6, "100101", 9)]:
        inst = make_simon_instance(n, r, seed)
        reloaded = SimonInstance.from_dict(json.loads(json.dumps(inst.to_dict())))
        assert isinstance(reloaded.table, tuple)
        assert reloaded == inst and inst == reloaded
        assert hash(reloaded) == hash(inst)
        assert reloaded.table == inst.table and inst.table == reloaded.table
    assert make_simon_instance(3, "110", 5) != make_simon_instance(3, "011", 5)


def test_simon_instance_json_roundtrip():
    inst = make_simon_instance(3, "110", seed=5)
    data = json.loads(json.dumps(inst.to_dict()))
    assert SimonInstance.from_dict(data) == inst
    assert data["r"] == "110"
    assert len(data["table"]) == 8
    assert all(len(v) == 3 for v in data["table"])


def test_simon_global_state_structure():
    inst = make_simon_instance(2, "11", seed=2)
    g = simon_global_state(inst)
    assert g.m == 4
    assert set(g.amps) <= {0, 1}
    assert len(g.nonzero_indices()) == 4
    # nonzero positions are exactly |x>|f(x)>
    assert g.nonzero_indices() == tuple(
        sorted((x << 2) | inst.table[x] for x in range(4))
    )


@pytest.mark.parametrize("n", range(2, GLOBAL_STATE_CAP + 1))
def test_simon_global_state_register_rank(n):
    # every period up to n = 6, a seeded sample of 32 above
    cut = Bipartition(2 * n, tuple(range(1, n + 1)))
    if n <= 6:
        periods = range(1, 1 << n)
    else:
        rng = SplitMix64(200 + n)
        periods = set()
        while len(periods) < 32:
            periods.add(1 + rng.below((1 << n) - 1))
    for r in periods:
        inst = make_simon_instance(n, r, seed=17)
        g = simon_global_state(inst)
        rank = schmidt_rank(g, cut)
        assert rank == 1 << (n - 1)
        if n <= 4:
            # independent oracle: rational-arithmetic elimination on the raw matrix
            matrix = [
                [g.amps[(x << n) | y] for y in range(1 << n)] for x in range(1 << n)
            ]
            assert fraction_rank(matrix) == rank


def test_simon_global_state_disjoint_supports():
    inst = make_simon_instance(3, "011", seed=8)
    g = simon_global_state(inst)
    by_output: dict[int, set[int]] = {}
    for idx in g.nonzero_indices():
        by_output.setdefault(idx & 7, set()).add(idx >> 3)
    supports = list(by_output.values())
    for i, a in enumerate(supports):
        for b in supports[i + 1 :]:
            assert not (a & b)


def test_simon_global_state_cap():
    inst = make_simon_instance(3, "001", seed=0)
    assert simon_global_state(inst).m == 6
    big = make_simon_instance(9, 1, seed=0)
    with pytest.raises(ResourceCapError):
        simon_global_state(big)


def test_simon_measure_collapse_structure():
    inst = make_simon_instance(2, "11", seed=1)
    seen = set()
    for seed in range(1000):
        out = simon_measure(inst, seed)
        assert out.collapsed.amps in {(1, 0, 0, 1), (0, 1, 1, 0)}
        seen.add(out.collapsed.amps)
    assert len(seen) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simon_measure_coset_positions(n):
    for r in (1, (1 << n) - 1):
        inst = make_simon_instance(n, r, seed=4)
        for seed in range(50):
            out = simon_measure(inst, seed)
            nz = out.collapsed.nonzero_indices()
            assert len(nz) == 2
            assert nz[0] ^ nz[1] == inst.r
            assert all(out.collapsed.amps[i] == 1 for i in nz)
            assert inst.table[nz[0]] == out.observed


def test_simon_measure_uniform_within_5_sigma():
    inst = make_simon_instance(3, "101", seed=42)
    draws = 10_000
    counts = Counter(simon_measure(inst, seed).observed for seed in range(draws))
    outcomes = 1 << (inst.n - 1)
    p = 1.0 / outcomes
    sigma = math.sqrt(draws * p * (1 - p))
    assert len(counts) == outcomes
    for c in counts.values():
        assert abs(c - draws * p) < 5 * sigma


def test_simon_measure_class_seed_invariant():
    inst = make_simon_instance(4, "0110", seed=11)
    sizes = {classify(simon_measure(inst, seed).collapsed).block_sizes for seed in range(20)}
    assert len(sizes) == 1


def test_simon_canonical_state():
    assert simon_canonical_state(3, "100").nonzero_indices() == (0, 4)
    assert simon_canonical_state(3, "111").nonzero_indices() == (0, 7)
    with pytest.raises(ValueError):
        simon_canonical_state(3, "000")
    with pytest.raises(ValueError):
        simon_canonical_state(1, "1")
    with pytest.raises(ValueError):
        simon_canonical_state(4, "110")  # wrong-length bit string
    with pytest.raises(ValueError):
        simon_canonical_state(3, "1x0")


def test_local_x_maps_collapse_to_canonical():
    for n, r in [(3, "110"), (4, "1011"), (4, "0101")]:
        inst = make_simon_instance(n, r, seed=23)
        for seed in range(10):
            out = simon_measure(inst, seed)
            xbar = out.collapsed.nonzero_indices()[0]
            s = out.collapsed
            for q in range(1, n + 1):
                if (xbar >> (n - q)) & 1:
                    s = apply_local_x(s, q)
            assert s == simon_canonical_state(n, int(r, 2))


@pytest.mark.parametrize("n", range(2, 9))
def test_coset_labels_iterate_as_they_index(n):
    rng = SplitMix64(300 + n)
    for seed in (0, 1, 7, rng.bits(32)):
        for r in {1, (1 << n) - 1, 1 + rng.below((1 << n) - 1)}:
            t = CosetLabels(n, r, seed)
            assert list(t) == [t[x] for x in range(1 << n)]
            assert t == tuple(t) and hash(t) == hash(tuple(t))
            assert t[-1] == t[(1 << n) - 1] and t[-(1 << n)] == t[0]
            for x in (1 << n, -(1 << n) - 1):
                with pytest.raises(IndexError):
                    t[x]


def test_every_simon_state_is_held_by_its_support():
    inst = make_simon_instance(8, 0b10110101, seed=3)
    outcome = simon_measure(inst, seed=4)
    states = {
        "collapse": (outcome.collapsed, 2),
        "canonical": (simon_canonical_state(8, 0b10110101), 2),
        "register": (simon_global_state(inst), 1 << 8),
    }
    for name, (s, points) in states.items():
        values, support = s.entries()
        assert isinstance(values, dict) and len(support) == points, name
        assert set(values.values()) == {1}, name
    xbar = outcome.collapsed.entries()[1][0]
    assert outcome.collapsed.entries()[1] == [xbar, xbar ^ 0b10110101]
    assert simon_global_state(inst).entries()[1] == [(x << 8) | inst.table[x] for x in range(256)]
