"""Shared helpers: independent oracles used to cross-check library results."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest

from eqw import census
from eqw.states import BooleanFunction, StateVector, state_from_function


@pytest.fixture
def pool_starts(monkeypatch) -> list[int]:
    """The process count of every pool ``census.pool_map`` starts, in order,
    on a stand-in host of 4 cores; the pools are real."""
    started, pool = [], census.multiprocessing.Pool

    def counted_pool(processes):
        started.append(processes)
        return pool(processes=processes)

    monkeypatch.setattr(census, "available_cores", lambda: 4)
    monkeypatch.setattr(census.multiprocessing, "Pool", counted_pool)
    return started


def all_sign_states(n: int):
    for fi in range(1 << (1 << n)):
        yield fi, state_from_function(BooleanFunction(n, fi))


def balanced_sign_states(n: int):
    for minus in combinations(range(1 << n), 1 << (n - 1)):
        yield StateVector(n, tuple(-1 if x in minus else 1 for x in range(1 << n)))


def canonical_amps(amps: tuple[int, ...]) -> tuple[int, ...]:
    """Global-sign canonical key for deduplicating states."""
    for a in amps:
        if a:
            return tuple(-x for x in amps) if a < 0 else amps
    raise ValueError("zero vector")


def naive_wht(amps: tuple[int, ...]) -> list[int]:
    """O(4^n) transform straight from the definition; oracle for the butterfly."""
    size = len(amps)
    return [
        sum(s * (-1 if (a & x).bit_count() % 2 else 1) for x, s in enumerate(amps))
        for a in range(size)
    ]


def loop_hadamard_all(a: list[int], skip: int = 0) -> list[int]:
    """Element-by-element butterfly, O(n 2^n) Python steps; reference for the
    packed-lane kernel. Transforms index bits ``skip`` and up of a copy of a."""
    a = list(a)
    h = 1 << skip
    size = len(a)
    while h < size:
        for start in range(0, size, h * 2):
            for j in range(start, start + h):
                x, y = a[j], a[j + h]
                a[j] = x + y
                a[j + h] = x - y
        h *= 2
    return a


def fraction_rank(matrix: list[list[int]]) -> int:
    """Rank over the rationals by plain Gaussian elimination with Fractions."""
    mat = [[Fraction(v) for v in row] for row in matrix if any(row)]
    rank = 0
    ncols = len(matrix[0]) if matrix else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = Fraction(1) / prow[c]
        mat[rank] = [v * inv for v in prow]
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def elimination_rank(matrix: list[list[int]]) -> int:
    """Rank by integer Gaussian elimination, column by column: a pivot search,
    a row swap, and gcd reduction of every eliminated row. The reference for
    ``schmidt_rank``'s row-echelon loop."""
    mat = [row[:] for row in matrix if any(row)]
    ncols = len(matrix[0]) if matrix else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        pval = prow[c]
        for i in range(rank + 1, len(mat)):
            val = mat[i][c]
            if val:
                row = [pval * a - val * b for a, b in zip(mat[i], prow)]
                if any(row):
                    g = math.gcd(*row)
                    row = [x // g for x in row]
                mat[i] = row
        rank += 1
    return rank


def interleave_product(
    n: int, subset: tuple[int, ...], u: tuple[int, ...], v: tuple[int, ...]
) -> tuple[int, ...]:
    """Product state with u's qubits at the subset positions, v's at the rest.

    Independent of the library's reshape/tensor code: assembles each global
    amplitude directly from the two factors' bits.
    """
    others = tuple(q for q in range(1, n + 1) if q not in subset)
    out = []
    for x in range(1 << n):
        r = 0
        for q in subset:
            r = (r << 1) | ((x >> (n - q)) & 1)
        c = 0
        for q in others:
            c = (c << 1) | ((x >> (n - q)) & 1)
        out.append(u[r] * v[c])
    return tuple(out)
