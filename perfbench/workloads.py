"""Seeded inputs with answers known by construction, and the ops that run them.

Every workload is a fixed list of ops built from the seed. One op is one
user-level request: classify one state, run one oracle pipeline, or issue
one CLI command. An op's ``run`` does the program's work and is timed; its
``check`` compares the result with the answer the generator planted and is
not timed.

The seed changes the states, periods and command parameters, never the
composition of a pass (how many ops of each family and size), so the work in
a pass stays comparable across seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("sign-classify", "sparse-collapse", "census-verify")

DIGESTS_PATH = Path(__file__).resolve().parent / "expected" / "cli_digests.json"

# Closed-form census parameters; every point in these ranges is issued once
# per pass and has a pinned stdout digest. `census dj` stops at n = 13
# because the balanced count at n = 14 exceeds Python's default int-to-str
# digit limit.
CENSUS_DJ_NS = range(5, 14)
CENSUS_GROVER_NS = range(6, 21)
CENSUS_GROVER_MS = range(1, 9)
CENSUS_SIMON_NS = range(10, 65)
CENSUS_WORKERS = "2"

LABEL_FULLY_SEPARABLE = "fully-separable"
LABEL_BISEPARABLE = "biseparable"
LABEL_Q_SEPARABLE = "q-separable"
LABEL_GME = "genuinely-multipartite-entangled"


@dataclass
class Op:
    """One timed request plus the check of its result."""

    label: str
    family: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    span: str = "bench.op"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------- sign vectors


def odd_weight_table(rng: random.Random, k: int) -> list[int]:
    """Random truth table on k bits with an odd number of ones.

    Odd weight puts the monomial x1...xk in the algebraic normal form, so the
    sign vector is genuinely multipartite entangled for k >= 2.
    """
    table = [rng.getrandbits(1) for _ in range(1 << k)]
    if sum(table) % 2 == 0:
        table[rng.randrange(1 << k)] ^= 1
    return table


def interleave(n: int, blocks: list[tuple[tuple[int, ...], list[int]]]) -> list[int]:
    """Truth table of the XOR of block functions placed on their qubits.

    Block qubits are 1-based and ascending; the first listed qubit is the most
    significant bit of the block's local index, qubit 1 the most significant
    bit of x. The sign vector is the tensor product of the block sign vectors.
    """
    out = [0] * (1 << n)
    for x in range(1 << n):
        v = 0
        for qubits, table in blocks:
            local = 0
            for q in qubits:
                local = (local << 1) | ((x >> (n - q)) & 1)
            v ^= table[local]
        out[x] = v
    return out


def _signs(table: list[int]) -> tuple[int, ...]:
    return tuple(1 - 2 * b for b in table)


def _canonical(amps: tuple[int, ...]) -> tuple[int, ...]:
    for a in amps:
        if a:
            return tuple(-v for v in amps) if a < 0 else amps
    raise ValueError("zero vector")


def _label(q: int, n: int) -> str:
    if q == n:
        return LABEL_FULLY_SEPARABLE
    if q == 1:
        return LABEL_GME
    if q == 2:
        return LABEL_BISEPARABLE
    return LABEL_Q_SEPARABLE


@dataclass(frozen=True)
class Planted:
    """A sign vector assembled from blocks, with its known factorization."""

    n: int
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    table: tuple[int, ...]

    @classmethod
    def of(cls, n: int, blocks: list[tuple[tuple[int, ...], list[int]]]) -> "Planted":
        blocks = sorted(blocks, key=lambda b: b[0][0])
        table = tuple(interleave(n, blocks))
        return cls(n, tuple((qs, tuple(t)) for qs, t in blocks), table)

    def parity(self) -> Optional[tuple[int, int]]:
        """(a, sign) with amps = sign * (-1)^(a.x) when every block is one qubit."""
        if any(len(qs) > 1 for qs, _ in self.blocks):
            return None
        a, sign = 0, 1
        for (q,), (t0, t1) in self.blocks:
            a |= (t0 ^ t1) << (self.n - q)
            sign *= 1 - 2 * t0
        return a, sign


def planted_shape(rng: random.Random, n: int, shape: tuple[int, ...]) -> Planted:
    """Blocks of the given sizes on a seeded permutation of the qubits."""
    if sum(shape) != n:
        raise ValueError(f"shape {shape} does not cover {n} qubits")
    qubits = list(range(1, n + 1))
    rng.shuffle(qubits)
    blocks, at = [], 0
    for k in shape:
        qs = tuple(sorted(qubits[at:at + k]))
        at += k
        table = odd_weight_table(rng, k) if k > 1 else [rng.getrandbits(1), rng.getrandbits(1)]
        blocks.append((qs, table))
    return Planted.of(n, blocks)


def check_report(p: Planted, state, report, fast) -> Optional[str]:
    """Compare a classification and the spectral test with the planted answer."""
    if state.amps != _signs(list(p.table)):
        return "built state differs from the planted sign vector"
    if report.q != len(p.blocks):
        return f"q = {report.q}, planted {len(p.blocks)}"
    if report.label != _label(report.q, p.n):
        return f"label {report.label} for q = {report.q}"
    got = report.factorization.blocks
    for (qs, table), (gqs, factor) in zip(p.blocks, got):
        if gqs != qs:
            return f"block {gqs}, planted {qs}"
        if _canonical(factor.amps) != _canonical(_signs(list(table))):
            return f"factor on qubits {qs} is not +-1 times the planted block"
    back = report.factorization.reassemble().amps
    if back != state.amps and back != tuple(-a for a in state.amps):
        return "reassemble() is not proportional to the input"
    expected = p.parity()
    if expected is None:
        if fast is not None:
            return "spectral test calls an entangled state fully separable"
    else:
        if fast is None:
            return "spectral test misses a fully separable state"
        form, sign = fast
        if (form.value, sign) != expected:
            return f"spectral test gives (a={form.value}, sign={sign}), expected {expected}"
    return None


def _shapes(n: int) -> list[tuple[int, ...]]:
    """Fixed block-size shapes for the planted family at n qubits.

    From n = 10 on, the GME parts are kept at 9 qubits or split into pairs:
    the free qubits are found within n tries each, so the seed moves the cost
    of a pass little, and the only sweep above the cliff is the random state.
    """
    half = n // 2
    if n >= 10:
        return [(1,) * (n - 9) + (9,), (2,) * half + (1,) * (n % 2)]
    return [
        (half, n - half),
        (2,) * half + (1,) * (n % 2),
        (3, n - 3),
        (1, 1, n - 2),
        (2, 3, n - 5) if n > 5 else (2, n - 2),
        (4, 2) + (1,) * (n - 6),
    ]


# Ops per pass at each n: (family, count). Planted ops cycle through _shapes;
# DJ ops prepare a planted state with an (n-2, 2) split, or (1,...,1, 9) from
# n = 10 on. A GME sweep tries every subset of at most n/2 qubits: 255 at
# n = 9 fit the engine's 512-entry index-map cache, 637 at n = 10 thrash it
# (the index-map cliff). The random n = 10 state is the op above the cliff;
# everything else sits below it.
SIGN_PLAN = {
    **{n: (("random", 5), ("planted", 6), ("product", 3), ("parity", 3), ("dj", 4))
       for n in range(6, 10)},
    10: (("random", 1), ("planted", 2), ("product", 1), ("parity", 1), ("dj", 1)),
    11: (("planted", 1), ("product", 1), ("parity", 1), ("dj", 1)),
}


def _dj_shape(n: int) -> tuple[int, ...]:
    return (1,) * (n - 9) + (9,) if n >= 10 else (n - 2, 2)


def sign_inputs(seed: int) -> list[tuple[str, Planted]]:
    """Seeded (family, planted state) list, ascending n, fixed family order."""
    rng = _rng("sign-classify", seed)
    out = []
    for n, plan in SIGN_PLAN.items():
        shapes = _shapes(n)
        for family, count in plan:
            for i in range(count):
                if family == "random":
                    p = Planted.of(n, [(tuple(range(1, n + 1)), odd_weight_table(rng, n))])
                elif family == "planted":
                    p = planted_shape(rng, n, shapes[i % len(shapes)])
                elif family == "dj":
                    p = planted_shape(rng, n, _dj_shape(n))
                elif family == "product":
                    p = planted_shape(rng, n, (1,) * n)
                else:
                    a = rng.randrange(1, 1 << n)
                    p = Planted.of(
                        n, [((q,), [0, (a >> (n - q)) & 1]) for q in range(1, n + 1)]
                    )
                out.append((family, p))
    return out


def sign_classify_ops(seed: int) -> list[Op]:
    import eqw.oracles as oracles
    import eqw.separability as sep
    import eqw.states as states

    ops = []
    for family, p in sign_inputs(seed):
        n = p.n
        if family == "parity":
            a, _ = p.parity()

            def run(n=n, a=a):
                s = states.state_from_function(
                    states.bv_function(states.LinearForm.from_value(n, a))
                )
                return s, sep.classify(s), sep.full_separability_fast(s)

            def check(res, p=p):
                return check_report(p, *res)
        elif family == "dj":

            def run(n=n, table=p.table):
                register, target = oracles.dj_oracle_pipeline(states.make_function(n, table))
                report = sep.classify(register)
                return register, target, report, sep.full_separability_fast(register)

            def check(res, p=p):
                register, target, report, fast = res
                if target.amps != (1, -1):
                    return f"target qubit came out as {target.amps}"
                return check_report(p, register, report, fast)
        else:

            def run(n=n, table=p.table):
                s = states.state_from_function(states.make_function(n, table))
                return s, sep.classify(s), sep.full_separability_fast(s)

            def check(res, p=p):
                return check_report(p, *res)

        ops.append(Op(f"{family} n={n}", family, n, run, check))
    return ops


# ------------------------------------------------------------- sparse collapse

# Periods per pass: one of every weight up to 8 at each n = 8..12, one of
# weight 9 at each n >= 9, and weight 10 at n = 10 (the all-ones period,
# GHZ-10) and n = 12. Weight k leaves a GHZ block on k qubits whose sweep
# tries 2^(k-1) - 1 subsets plus the singletons before it, so weight 10 sits
# above the index-map cliff and weights up to 9 below it. With 51 ops a pass,
# p90 falls among the four weight-9 sweeps, which cost about the same.
COLLAPSE_NS = range(8, 13)
COLLAPSE_LIGHT_WEIGHTS = range(1, 9)
COLLAPSE_HEAVY = {9: (9,), 10: (9, 10), 11: (9,), 12: (9, 10)}
RANK_NS = range(4, 9)


def collapse_inputs(seed: int) -> list[tuple[int, int, int]]:
    """(n, period r, instance seed) list, ascending n then weight.

    The periods are the same for every seed: how long the sweep takes to
    peel the qubits outside supp(r) depends on where they sit, and seeded
    supports moved the cost of a pass by about a quarter between two seeds.
    The seed picks each instance's output labels and the measured coset.
    """
    periods = random.Random("sparse-collapse/periods")
    rng = _rng("sparse-collapse", seed)
    out = []
    for n in COLLAPSE_NS:
        for k in [*COLLAPSE_LIGHT_WEIGHTS, *COLLAPSE_HEAVY.get(n, ())]:
            r = sum(1 << (n - q) for q in periods.sample(range(1, n + 1), k))
            out.append((n, r, rng.getrandbits(32)))
    return out


def check_collapse(n: int, r: int, inst, outcome, report) -> Optional[str]:
    """q = n - wt(r) + 1, one GHZ block on supp(r), basis qubits elsewhere.

    The block is |y> + |y xor 1...1> with y the bits of the collapsed basis
    index on supp(r); every other qubit is the basis state of its bit.
    """
    if inst.n != n or inst.r != r:
        return f"instance has n={inst.n} r={inst.r}, asked n={n} r={r}"
    support = [x for x, a in enumerate(outcome.collapsed.amps) if a]
    if len(support) != 2 or support[0] ^ support[1] != r:
        return f"collapse support {support} is not a coset of r"
    xbar = support[0]
    if outcome.collapsed.amps[xbar] != 1 or outcome.collapsed.amps[support[1]] != 1:
        return "collapse amplitudes are not +1"
    if inst.table[xbar] != outcome.observed:
        return "observed value does not match the collapsed coset"
    k = r.bit_count()
    if report.q != n - k + 1:
        return f"q = {report.q}, expected n - wt(r) + 1 = {n - k + 1}"
    ones = tuple(q for q in range(1, n + 1) if (r >> (n - q)) & 1)
    y = 0
    for q in ones:
        y = (y << 1) | ((xbar >> (n - q)) & 1)
    ghz = tuple(1 if x in (y, y ^ ((1 << k) - 1)) else 0 for x in range(1 << k))
    for qs, factor in report.factorization.blocks:
        if qs == ones:
            if factor.amps != ghz:
                return f"block {qs} is not a GHZ block"
        elif len(qs) == 1 and qs[0] not in ones:
            bit = (xbar >> (n - qs[0])) & 1
            if factor.amps != ((0, 1) if bit else (1, 0)):
                return f"qubit {qs[0]} factor {factor.amps} is not basis state {bit}"
        else:
            return f"block {qs} is neither the GHZ block on {ones} nor one outside qubit"
    return None


def sparse_collapse_ops(seed: int) -> list[Op]:
    import eqw.oracles as oracles
    import eqw.separability as sep

    ops = []
    for n, r, inst_seed in collapse_inputs(seed):

        def run(n=n, r=r, s=inst_seed):
            inst = oracles.make_simon_instance(n, r, s)
            outcome = oracles.simon_measure(inst, s)
            return inst, outcome, sep.classify(outcome.collapsed)

        def check(res, n=n, r=r):
            return check_collapse(n, r, *res)

        ops.append(Op(f"collapse n={n} wt={r.bit_count()}", "simon", n, run, check))
    rng = _rng("sparse-collapse-rank", seed)
    for n in RANK_NS:
        r = rng.randrange(1, 1 << n)
        s = rng.getrandbits(32)

        def run(n=n, r=r, s=s):
            inst = oracles.make_simon_instance(n, r, s)
            cut = sep.Bipartition(2 * n, tuple(range(1, n + 1)))
            return sep.schmidt_rank(oracles.simon_global_state(inst), cut)

        def check(rank, n=n):
            if rank != 1 << (n - 1):
                return f"register-cut rank {rank}, expected 2^(n-1) = {1 << (n - 1)}"
            return None

        ops.append(Op(f"register-rank n={n}", "rank", n, run, check))
    return ops


# --------------------------------------------------------------- census-verify


def fixed_commands() -> list[list[str]]:
    w = ["--workers", CENSUS_WORKERS]
    return [
        ["census", "grover", "--n", "5", "--m", "4", "--exhaustive", *w],
        ["census", "dj", "--n", "4", "--exhaustive", *w],
        ["census", "simon", "--n", "9", "--exhaustive", *w],
        ["verify", "--suite", "all", "--n", "2..4", *w],
        ["asymptotics", "--max-n", "20"],
    ]


def formula_command(algorithm: str, n: int, m: Optional[int] = None) -> list[str]:
    args = ["census", algorithm, "--n", str(n)]
    return args + ["--m", str(m)] if m is not None else args


def all_pinned_commands() -> list[list[str]]:
    """Every command census-verify issues in one pass."""
    cmds = fixed_commands()
    cmds += [formula_command("dj", n) for n in CENSUS_DJ_NS]
    cmds += [formula_command("grover", n, m) for n in CENSUS_GROVER_NS for m in CENSUS_GROVER_MS]
    cmds += [formula_command("simon", n) for n in CENSUS_SIMON_NS]
    return cmds


def census_commands(seed: int) -> list[list[str]]:
    """Every pinned command once, in a seeded order.

    The closed forms are all issued, not sampled, so every seed times the
    same commands and the latency percentiles compare like with like.
    """
    cmds = all_pinned_commands()
    _rng("census-verify", seed).shuffle(cmds)
    return cmds


def command_key(args: list[str]) -> str:
    """Name of the command kind, as used by the cli.command_s metrics."""
    if args[0] != "census":
        return args[0]
    return f"census-{args[1]}-exhaustive" if "--exhaustive" in args else "census-formula"


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def census_verify_ops(seed: int) -> list[Op]:
    import eqw.cli as cli
    from click.testing import CliRunner

    digests = load_digests()
    runner = CliRunner()
    ops = []
    for args in census_commands(seed):
        line = " ".join(args)
        if line not in digests:
            raise KeyError(f"no pinned digest for `eqw {line}`")

        def run(args=args):
            return runner.invoke(cli.main, args)

        def check(res, want=digests[line]):
            if res.exception is not None or res.exit_code != 0:
                return f"exit code {res.exit_code} ({res.exception!r})"
            if hashlib.sha256(res.stdout_bytes).hexdigest() != want:
                return "stdout differs from the pinned digest"
            return None

        ops.append(Op(line, command_key(args), 0, run, check, span="cli.command"))
    return ops


BUILDERS = {
    "sign-classify": sign_classify_ops,
    "sparse-collapse": sparse_collapse_ops,
    "census-verify": census_verify_ops,
}


def build_ops(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)


def enumerated_states(tag: str) -> int:
    """States an enumeration classifies, counted from the closed forms."""
    algorithm, *params = tag.split(":")
    if algorithm == "dj":
        (n,) = map(int, params)
        return math.comb(1 << n, 1 << (n - 1))
    if algorithm == "grover":
        n, m = map(int, params)
        return math.comb(1 << n, m)
    (n,) = map(int, params)
    return (1 << n) - 1
