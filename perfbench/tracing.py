"""The traced run: per-layer numbers for one workload.

Three parts, all outside the untraced end-to-end measurement:

* start-up: ``python -m oofa --version`` and a bare ``import oofa`` in fresh
  interpreters;
* replay: one pass of the workload's requests in this process, through
  ``oofa.cli.main`` with the layer entry points of every ``src/oofa`` module
  wrapped in spans (one span per call, nested calls become child spans).
  Caches are emptied before each request, as a fresh process would find
  them.  Each replayed output must equal the untraced output byte for byte;
* layer probes: each layer's public functions timed on their own at the
  sizes the workloads use, so every workload reports every layer.

Spans are recorded from these files around calls into the package; nothing
in the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import inputs, workloads
from .harness import Run, import_cli, run_cli, slot_latencies

STARTUP_SAMPLES = 5

# layer -> public entry points wrapped in spans during the replay
LAYER_FUNCTIONS = {
    "perms": ("enumerate_permutations",),
    "models": ("full_factorial_matrix", "build_matrix"),
    "fitting": ("ols_fit",),
    "ranking": ("predict_all", "predict_rows", "rank_descending", "top_k"),
    "averaging": ("average_predictions",),
    "criteria": ("factorial_moments", "orthogonal_coding", "criterion_value"),
    "search": ("exchange_search",),
    "dataio": ("read_design", "write_design", "fit_to_dict", "fit_from_dict",
               "to_json", "table_to_csv", "table_to_json"),
}

# (name, unit) of the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("cli.startup_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("perms.enumerate_ms.m6", "ms"),
    ("perms.enumerate_ms.m7", "ms"),
    ("perms.enumerate_ms.m8", "ms"),
    ("perms.orders", "count"),
    *((f"models.full_factorial_ms.{fam}", "ms") for fam in ("pwo", "tpwo", "cp", "rs2", "nn")),
    ("models.build_matrix_ms", "ms"),
    ("models.full_factorial_mb", "MB"),
    ("fitting.ols_fit_ms", "ms"),
    ("fitting.fits", "count"),
    ("ranking.predict_all_ms", "ms"),
    ("ranking.rank_descending_ms", "ms"),
    ("averaging.average_predictions_ms", "ms"),
    ("criteria.factorial_moments_ms", "ms"),
    ("criteria.orthogonal_coding_ms", "ms"),
    ("criteria.criterion_value_ms", "ms"),
    ("search.pass_ms.m5", "ms"),
    ("search.pass_ms.m6", "ms"),
    ("search.pass_ms.m7", "ms"),
    ("search.sweep_ms", "ms"),
    ("search.candidates", "count"),
    ("search.passes", "count"),
    ("search.cands_per_s", "1/s"),
    ("dataio.read_design_ms", "ms"),
    ("dataio.fit_json_ms", "ms"),
    ("dataio.table_ms", "ms"),
    ("dataio.out_mb", "MB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    request: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    children: float = 0.0  # time covered by direct child spans
    size: int = 0  # len() of the result, for enumerate_permutations

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    """Spans kept in memory; ``request`` names the request being replayed."""

    request: str = ""
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.request, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if name == "perms.enumerate_permutations":
                    span.size = len(result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.children += span.seconds
                self.spans.append(span)

        return traced

    def top_level(self, request: str) -> float:
        return sum(s.seconds for s in self.spans if s.request == request and s.parent is None)

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - s.children
        return out


def package_modules() -> list:
    import_cli()
    return [mod for name, mod in sys.modules.items()
            if (name == "oofa" or name.startswith("oofa.")) and mod is not None]


def cache_clears(modules) -> list:
    """``cache_clear`` of every memoized function the package defines."""
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "").startswith("oofa"):
                seen[id(value)] = clear
    return list(seen.values())


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap each layer entry point in every module that binds it; undo on exit."""
    modules = package_modules()
    by_name = {mod.__name__: mod for mod in modules}
    patched = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = by_name.get(f"oofa.{layer}")
        for name in names:
            original = getattr(home, name, None)
            if original is None:
                continue  # the layer no longer has this entry point
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    patched.append((mod, name, original))
    try:
        yield
    finally:
        for mod, name, original in patched:
            setattr(mod, name, original)


# ---------------------------------------------------------------------------
# the three parts of a traced run
# ---------------------------------------------------------------------------


def startup(env: dict, workdir) -> dict[str, float]:
    version = [run_cli(["--version"], workdir, env).seconds for _ in range(STARTUP_SAMPLES)]
    code = ("import time; t = time.perf_counter(); import oofa.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(STARTUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env,
                              capture_output=True, text=True, check=True)
        imports.append(float(done.stdout))
    return {"cli.startup_ms": 1e3 * statistics.median(version),
            "cli.import_ms": 1e3 * statistics.median(imports)}


@dataclass
class Replay:
    tracer: Tracer
    main_s: dict[str, float]  # slot -> wall time of cli.main
    out_bytes: int
    problems: list[str]


def replay(run: Run) -> Replay:
    """One pass of the workload in-process, traced; outputs must match the run."""
    cli = import_cli()
    clears = cache_clears(package_modules())
    expected = {}
    for o in run.good():
        expected.setdefault(o.slot, hashlib.sha256(o.stdout.encode()).hexdigest())
    tracer, main_s, out_bytes, problems = Tracer(), {}, 0, []
    cwd = os.getcwd()
    os.chdir(run.workdir)
    try:
        with instrumented(tracer):
            for req in run.requests:
                for clear in clears:
                    clear()
                tracer.request = req.slot
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(req.argv))
                main_s[req.slot] = time.perf_counter() - start
                text = out.getvalue()
                out_bytes += len(text.encode())
                if code != 0 or hashlib.sha256(text.encode()).hexdigest() != expected.get(req.slot):
                    problems.append(f"{req.slot}: replayed output differs from the untraced run")
    finally:
        os.chdir(cwd)
    return Replay(tracer, main_s, out_bytes, problems)


def median_ms(fn, reps: int, before=None) -> float:
    """Median wall milliseconds of ``fn()``; ``before()`` runs untimed ahead of each."""
    times = []
    for _ in range(reps):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def probes(seed: int, workdir) -> dict[str, float]:
    """Each layer's public functions at the workloads' sizes, one at a time."""
    import_cli()
    from oofa import averaging, criteria, dataio, fitting, models, perms, ranking, search

    ms: dict[str, float] = {}  # metric name -> value, mostly milliseconds
    analyze = inputs.make_analyze_data(seed, workdir)
    score = inputs.make_score_designs(seed, workdir)[8]
    specs = [models.parse_model(label) for label in inputs.ANALYSIS_MODELS]
    m = inputs.ANALYZE_M

    for k in (6, 7, 8):
        ms[f"perms.enumerate_ms.m{k}"] = median_ms(
            lambda: perms.enumerate_permutations(k), 3, perms.enumerate_permutations.cache_clear)
    perms.enumerate_permutations(m)
    for spec in specs:
        ms[f"models.full_factorial_ms.{spec.family.value}"] = median_ms(
            lambda: models.full_factorial_matrix(spec, m), 3,
            models.full_factorial_matrix.cache_clear)
    for spec in specs:
        models.full_factorial_matrix(spec, m)
    ms["models.full_factorial_mb"] = sum(
        models.full_factorial_matrix(spec, m).values.nbytes for spec in specs) / 1e6

    data = dataio.read_design(analyze)
    ms["dataio.read_design_ms"] = median_ms(lambda: dataio.read_design(analyze), 5)
    ms["models.build_matrix_ms"] = sum(
        median_ms(lambda: models.build_matrix(spec, data.design.runs), 5) for spec in specs)
    ms["fitting.ols_fit_ms"] = sum(
        median_ms(lambda: fitting.ols_fit(spec, data), 5) for spec in specs)
    ms["fitting.fits"] = len(specs)
    fits = [fitting.ols_fit(spec, data) for spec in specs]
    ms["dataio.fit_json_ms"] = sum(
        median_ms(lambda: dataio.fit_from_dict(
            json.loads(dataio.to_json(dataio.fit_to_dict(fit)))), 3)
        for fit in fits)

    ms["ranking.predict_all_ms"] = sum(
        median_ms(lambda: ranking.predict_all(fit), 3) for fit in fits)
    table = ranking.predict_all(fits[0])
    ms["ranking.rank_descending_ms"] = median_ms(
        lambda: ranking.rank_descending(table.estimates), 5)
    candidates = averaging.CandidateSet.from_akaike(fits)
    ms["averaging.average_predictions_ms"] = median_ms(
        lambda: averaging.average_predictions(candidates), 3)

    # the two widest tables the workloads print: average (m! x 21) and predict (m! x 4)
    averaged = averaging.average_predictions(candidates)
    per_model = [ranking.predict_all(fit) for fit in fits]
    wide = [[*perm.order] + [v for t in per_model for v in (t.estimates[i], int(t.ranks[i]))]
            + [averaged.estimates[i], int(averaged.ranks[i]), averaged.std_errors[i]]
            for i, perm in enumerate(averaged.perms)]
    narrow = [[perm.label(), table.estimates[i], table.std_errors[i], int(table.ranks[i])]
              for i, perm in enumerate(table.perms)]
    ms["dataio.table_ms"] = (
        median_ms(lambda: dataio.table_to_csv([f"c{j}" for j in range(len(wide[0]))], wide), 3)
        + median_ms(lambda: dataio.table_to_json(
            ["order", "estimate", "std_error", "rank"], narrow), 3))

    ms["criteria.factorial_moments_ms"] = sum(
        median_ms(lambda: criteria.factorial_moments(spec, m), 3,
                  criteria.factorial_moments.cache_clear)
        for spec in specs)
    for spec in specs:
        criteria.factorial_moments(spec, m)
    ms["criteria.orthogonal_coding_ms"] = sum(
        median_ms(lambda: criteria.orthogonal_coding(spec, m), 3) for spec in specs)
    design = dataio.read_design(score)
    crits = [criteria.CriterionSpec(criteria.CriterionKind(kind), 1.0, orth)
             for kind in workloads.CRITERIA for orth in (False, True)]
    ms["criteria.criterion_value_ms"] = median_ms(
        lambda: [criteria.criterion_value(spec, crit, design)
                 for spec in specs for crit in crits], 3)

    ms.update(search_probes(seed, criteria, search, models))
    return ms


def search_probes(seed: int, criteria, search, models) -> dict[str, float]:
    """One exchange pass (restarts = 1, max_passes = 1) per design-search request."""
    by_m: dict[int, list[float]] = {}
    total_ms, cands, sweep = 0.0, 0, 0.0
    for k, (m, runs, labels, kind, orth, _, _) in enumerate(workloads.SEARCH_PROBES):
        specs = [models.parse_model(label) for label in labels.split(",")]
        crit = criteria.CriterionSpec(criteria.CriterionKind(kind), 1.0, orth)
        config = search.SearchConfig(m=m, n_runs=runs,
                                     objective=criteria.CompoundSpec.equal_weights(specs, crit),
                                     restarts=1, seed=seed * 100 + k, max_passes=1)
        for spec in specs:
            models.full_factorial_matrix(spec, m)
        pass_ms = median_ms(lambda: search.exchange_search(config), 1)
        by_m.setdefault(m, []).append(pass_ms)
        total_ms += pass_ms
        cands += workloads.START_ATTEMPTS + runs * math.factorial(m)
        if m == max(c[0] for c in workloads.SEARCH_PROBES):
            sweep = pass_ms / runs
    out = {f"search.pass_ms.m{m}": statistics.median(times) for m, times in by_m.items()}
    out.update({"search.sweep_ms": sweep, "search.candidates": cands,
                "search.passes": len(workloads.SEARCH_PROBES),
                "search.cands_per_s": 1e3 * cands / total_ms})
    return out


def per_layer(run: Run, env: dict) -> tuple[dict[str, float], dict, list[str]]:
    """(per-layer metrics, report details, problems) for a finished untraced run."""
    metrics = startup(env, run.workdir)
    rep = replay(run)
    latency = slot_latencies(run, statistics.median)
    startup_s = metrics["cli.startup_ms"] / 1e3
    slots = [req.slot for req in run.requests if req.slot in latency]
    top = {slot: rep.tracer.top_level(slot) for slot in slots}
    untraced = sum(latency[slot] for slot in slots)
    metrics["cli.self_ms"] = 1e3 * sum(rep.main_s[slot] - top[slot] for slot in slots)
    # orders requested from enumerate_permutations, cache hits included
    metrics["perms.orders"] = sum(s.size for s in rep.tracer.spans
                                  if s.name == "perms.enumerate_permutations")
    metrics["dataio.out_mb"] = rep.out_bytes / 1e6
    metrics["trace.coverage"] = sum(startup_s + top[slot] for slot in slots) / untraced
    metrics["trace.overhead"] = sum(startup_s + rep.main_s[slot] for slot in slots) / untraced
    metrics.update(probes(run.seed, run.workdir))

    by_command: dict[str, dict[str, list[float]]] = {}
    for req in run.requests:
        if req.slot in latency:
            entry = by_command.setdefault(req.command, {"self": [], "coverage": []})
            entry["self"].append(1e3 * (rep.main_s[req.slot] - top[req.slot]))
            entry["coverage"].append((startup_s + top[req.slot]) / latency[req.slot])
    detail = {
        f"cli.self_ms.{cmd}": statistics.median(v["self"]) for cmd, v in by_command.items()
    } | {
        f"trace.coverage.{cmd}": statistics.median(v["coverage"]) for cmd, v in by_command.items()
    } | {
        f"replay.{layer}.self_ms": 1e3 * value
        for layer, value in sorted(rep.tracer.self_by_layer().items())
    }
    return metrics, detail, rep.problems
