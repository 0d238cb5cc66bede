import json
import math
from collections import Counter

import pytest

from eqw.errors import ResourceCapError, TargetEntanglementError
from eqw.oracles import (
    SimonInstance,
    _split_register_target,
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
    assert c.table != a.table  # overwhelmingly likely across label shuffles


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simon_global_state_register_rank(n):
    cut = Bipartition(2 * n, tuple(range(1, n + 1)))
    for r in range(1, 1 << n):
        inst = make_simon_instance(n, r, seed=17)
        g = simon_global_state(inst)
        rank = schmidt_rank(g, cut)
        assert rank == 1 << (n - 1)
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
