"""Where the traced run wraps the program, and the per-layer metrics it reports.

Each wrapped name is one that a layer looks up in another module at call
time: the benchmark's own calls into ``eqw.states``, ``eqw.oracles`` and
``eqw.separability`` go through module attributes, ``eqw.verify`` and
``eqw.cli`` reach the layers below through the names they imported, and
``run_verify`` finds the suites in ``eqw.verify.SUITES``. Calls made inside
pool workers are not seen, so counts on census-verify cover the parent
process only.

Every per-layer metric is per pass: times are summed over a pass, counts are
counted over a pass, and the run reports the median over its traced passes.
"""
from __future__ import annotations

from collections import defaultdict

from tracing import Tracer, self_times
from workloads import enumerated_states

FAMILIES = ("random", "planted", "product", "parity", "dj", "simon", "verify")
BANDS = ("le9", "ge10")
ORACLE_STAGES = ("dj_pipeline", "simon_instance", "simon_measure", "simon_global")
ENUMERATIONS = ("dj", "grover", "simon")
SUITES = ("dj", "grover", "simon", "lemma", "wht")
COMMANDS = (
    "census-dj-exhaustive",
    "census-grover-exhaustive",
    "census-simon-exhaustive",
    "census-formula",
    "verify",
    "asymptotics",
)


def _metrics() -> list[tuple[str, str, str]]:
    m = [("bench.trace_overhead_s", "s", "lower")]
    m += [("states.build_s", "s", "lower"), ("states.built", "count", "lower")]
    for stage in ORACLE_STAGES:
        m += [(f"oracles.{stage}_s", "s", "lower"), (f"oracles.{stage}_calls", "count", "lower")]
    m += [
        ("separability.classify_s", "s", "lower"),
        ("separability.classify_calls", "count", "lower"),
    ]
    for fam in FAMILIES:
        for band in BANDS:
            m += [
                (f"separability.classify_s.{fam}.{band}", "s", "lower"),
                (f"separability.classify_calls.{fam}.{band}", "count", "lower"),
            ]
    m += [
        ("separability.try_factor_calls", "count", "lower"),
        ("separability.split_ratio", "ratio", "higher"),
        ("separability.index_map_hit_ratio", "ratio", "higher"),
        ("separability.wht_s", "s", "lower"),
        ("separability.schmidt_rank_s", "s", "lower"),
    ]
    m += [(f"census.enumerate_s.{alg}", "s", "lower") for alg in ENUMERATIONS]
    m += [
        ("census.states_per_s", "1/s", "higher"),
        ("census.formula_s", "s", "lower"),
        ("census.parallel_efficiency", "ratio", "higher"),
    ]
    m += [(f"verify.suite_s.{s}", "s", "lower") for s in SUITES]
    m += [("verify.checks", "count", "higher"), ("verify.failed", "count", "lower")]
    m += [(f"cli.command_s.{c}", "s", "lower") for c in COMMANDS]
    m += [("cli.self_s", "s", "lower"), ("cli.stdout_bytes", "bytes", "lower")]
    return m


METRICS = _metrics()
UNITS = {name: unit for name, unit, _ in METRICS}


def _band(n: int) -> str:
    return "le9" if n <= 9 else "ge10"


def instrument(tracer: Tracer) -> None:
    """Register every wrap point on the tracer; install() applies them."""
    import eqw.cli as cli
    import eqw.oracles as oracles
    import eqw.separability as sep
    import eqw.states as states
    import eqw.verify as verify

    for attr in ("make_function", "bv_function"):
        tracer.wrap(states, attr, "states.build")
    tracer.wrap(states, "state_from_function", "states.build", lambda a, r: "built")

    for owner in (oracles, verify):
        tracer.wrap(owner, "dj_oracle_pipeline", "oracles.dj_pipeline")
        tracer.wrap(owner, "make_simon_instance", "oracles.simon_instance")
        tracer.wrap(owner, "simon_measure", "oracles.simon_measure")
        tracer.wrap(owner, "simon_global_state", "oracles.simon_global")

    tracer.wrap(sep, "classify", "separability.classify",
                lambda a, r: f"{tracer.family}.{_band(a[0].m)}")
    tracer.wrap(verify, "classify", "separability.classify",
                lambda a, r: f"verify.{_band(a[0].m)}")
    tracer.wrap(sep, "try_factor", "separability.try_factor",
                lambda a, r: "split" if r is not None else "")
    for owner in (sep, verify):
        tracer.wrap(owner, "wht", "separability.wht")
        tracer.wrap(owner, "schmidt_rank", "separability.schmidt_rank")

    for owner in (cli, verify):
        tracer.wrap(owner, "enumerate_dj", "census.enumerate", lambda a, r: f"dj:{a[0]}")
        tracer.wrap(owner, "enumerate_grover", "census.enumerate",
                    lambda a, r: f"grover:{a[0]}:{a[1]}")
        tracer.wrap(owner, "enumerate_simon", "census.enumerate", lambda a, r: f"simon:{a[0]}")
    for attr in ("dj_formula_report", "grover_formula_report", "simon_formula_report",
                 "dj_fractions", "grover_bisep_fraction_log2"):
        tracer.wrap(cli, attr, "census.formula")
    tracer.wrap(verify, "count_dj_bisep_upper", "census.formula")

    for suite in SUITES:
        tracer.wrap(verify.SUITES, suite, "verify.suite", lambda a, r, s=suite: s)
    tracer.wrap(cli, "run_verify", "verify.run", lambda a, r: (
        "" if r is None else f"{len(r)}:{sum(c.status == verify.STATUS_FAIL for c in r)}"
    ))


def index_map_counts() -> tuple[int, int] | None:
    """(hits, misses) of the engine's reshape-index cache, if it has one."""
    import eqw.separability as sep

    info = getattr(getattr(sep, "_index_maps", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def pass_metrics(spans: list, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans.

    ``extra`` supplies what spans cannot: the index-map cache counters over
    the pass and the stdout bytes of the pass's CLI commands.
    """
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    try_calls = splits = states = 0
    enum_s = 0.0
    for sid, name, start, end, _, _, tag in spans:
        d = end - start
        if name == "states.build":
            out["states.build_s"] += d
            out["states.built"] += tag == "built"
        elif name.startswith("oracles."):
            out[f"{name}_s"] += d
            out[f"{name}_calls"] += 1
        elif name == "separability.classify":
            out["separability.classify_s"] += d
            out["separability.classify_calls"] += 1
            out[f"separability.classify_s.{tag}"] += d
            out[f"separability.classify_calls.{tag}"] += 1
        elif name == "separability.try_factor":
            try_calls += 1
            splits += tag == "split"
        elif name in ("separability.wht", "separability.schmidt_rank"):
            out[f"{name}_s"] += d
        elif name == "census.enumerate":
            out[f"census.enumerate_s.{tag.split(':')[0]}"] += d
            enum_s += d
            states += enumerated_states(tag)
        elif name == "census.formula":
            out["census.formula_s"] += d
        elif name == "verify.suite":
            out[f"verify.suite_s.{tag}"] += d
        elif name == "verify.run" and tag:
            checks, failed = map(int, tag.split(":"))
            out["verify.checks"] += checks
            out["verify.failed"] += failed
        elif name == "cli.command":
            out[f"cli.command_s.{tag}"] += d
            out["cli.self_s"] += selfs[sid]
    out["separability.try_factor_calls"] = try_calls
    out["separability.split_ratio"] = splits / try_calls if try_calls else 0.0
    out["census.states_per_s"] = states / enum_s if enum_s else 0.0
    counts = extra.get("index_maps")
    if counts is None:
        out["separability.index_map_hit_ratio"] = None
    else:
        hits, misses = counts
        out["separability.index_map_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cli.stdout_bytes"] = extra.get("stdout_bytes", 0)
    unknown = set(out) - set(UNITS)
    if unknown:
        raise KeyError(f"spans produced unregistered metrics: {sorted(unknown)}")
    return {name: out.get(name, 0.0) for name in UNITS}
