"""The three workloads: one pass of CLI requests each, built from a seed.

A pass is a fixed list of requests issued one after another; the benchmark
repeats passes in a closed loop (one client, next request only after the
previous one ends).  Every request runs in the workload's own directory and
names its files relatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs

WORKLOADS = ("analyze-m8", "design-search", "score-batch")

CRITERIA = ("apv", "av", "a", "d")

# One design request: (m, runs, models, criterion, orth, restarts, max passes).
# Every search is capped so each request does a fixed number of passes
# whatever the seed; see `design_candidates`.
DESIGN_SEARCHES = (
    (5, 20, "pwo,rs2", "apv", False, 3, 1),
    (6, 20, "pwo", "apv", False, 1, 1),
    (6, 24, "rs2", "av", False, 1, 1),
    (6, 20, "pwo", "a", True, 1, 1),
    (6, 24, "rs2", "d", False, 1, 2),
)
# One m = 7 pass takes about 10 s on a 2-core host, too long to repeat in a
# run of the closed loop, so m = 7 is timed only as a layer probe.
SEARCH_PROBES = DESIGN_SEARCHES + ((7, 24, "pwo", "apv", False, 1, 1),)

START_ATTEMPTS = 200  # random starting designs scored per restart


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``slot`` names its place in the pass."""

    slot: str
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def analyze_requests(data: str) -> list[Request]:
    fits = {model: f"fit_{model.replace(':', '_')}.json" for model in inputs.ANALYSIS_MODELS}
    reqs = [
        Request(f"fit-{model}", ("fit", "--model", model, "--data", data, "--out", out),
                {"model": model, "data": data, "out": out})
        for model, out in fits.items()
    ]
    reqs += [
        Request("predict-full", ("predict", "--fit", fits["pwo"]),
                {"model": "pwo", "data": data}),
        Request("predict-top", ("predict", "--fit", fits["rs2"], "--top", "100"),
                {"model": "rs2", "data": data, "top": 100}),
        Request("average", ("average", "--data", data, "--models",
                            ",".join(inputs.ANALYSIS_MODELS)),
                {"models": inputs.ANALYSIS_MODELS, "data": data}),
        Request("predict-json", ("predict", "--fit", fits["nn"], "--format", "json"),
                {"model": "nn", "data": data, "format": "json"}),
    ]
    return reqs


def design_requests(seed: int) -> list[Request]:
    reqs = []
    for k, (m, runs, models, crit, orth, restarts, passes) in enumerate(DESIGN_SEARCHES):
        out = f"design_{k}.csv"
        argv = ["design", "--m", str(m), "--runs", str(runs), "--models", models,
                "--criterion", crit, "--restarts", str(restarts),
                "--max-passes", str(passes), "--seed", str(seed * 100 + k), "--out", out]
        if orth:
            argv.append("--orth")
        slot = f"design-m{m}-{crit}{'-orth' if orth else ''}-{models.replace(',', '+')}"
        reqs.append(Request(slot, tuple(argv), {
            "m": m, "runs": runs, "models": tuple(models.split(",")), "criterion": crit,
            "orth": orth, "restarts": restarts, "max_passes": passes, "out": out,
        }))
    return reqs


def score_requests(designs: dict[int, str]) -> list[Request]:
    """Each criterion at each m, the coding alternating so that every
    criterion and every m is scored both with and without --orth.  Twelve
    requests keep a pass short enough to repeat several times in a run."""
    reqs = []
    for k, crit in enumerate(CRITERIA):
        for m, path in designs.items():
            orth = (k + m) % 2 == 1
            argv = ["criteria", "--design", path, "--models",
                    ",".join(inputs.ANALYSIS_MODELS), "--criterion", crit]
            if orth:
                argv.append("--orth")
            slot = f"criteria-m{m}-{crit}{'-orth' if orth else ''}"
            reqs.append(Request(slot, tuple(argv), {
                "m": m, "design": path, "models": inputs.ANALYSIS_MODELS,
                "criterion": crit, "orth": orth,
            }))
    return reqs


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write the workload's inputs into ``workdir`` and return one pass."""
    if workload == "analyze-m8":
        return analyze_requests(inputs.make_analyze_data(seed, workdir).name)
    if workload == "design-search":
        return design_requests(seed)
    if workload == "score-batch":
        designs = inputs.make_score_designs(seed, workdir)
        return score_requests({m: path.name for m, path in designs.items()})
    raise ValueError(f"unknown workload {workload!r}")


def design_candidates(meta: dict, report: dict) -> int:
    """Exact count of candidate designs a `design` request scored.

    Each restart scores START_ATTEMPTS random starts, then N * m! candidates
    per pass.  A search stops after max_passes passes, or after the first
    pass that improves nothing; with one restart the report tells which.
    Requests with several restarts use max_passes = 1, where every restart
    makes exactly one pass.
    """
    w = math.factorial(meta["m"])
    if meta["restarts"] == 1:
        passes = min(report["passes"] + 1, meta["max_passes"])
    else:
        assert meta["max_passes"] == 1, "several restarts need max_passes = 1"
        passes = 1
    return meta["restarts"] * (START_ATTEMPTS + passes * meta["runs"] * w)
