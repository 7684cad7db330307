"""trusslab benchmark.

    python3 bench/run.py --workload {enum-search,enum-canon,queries}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout. A run repeats whole rounds of its workload's operations for
about S seconds (a round is started only while it is expected to end in
time; at least one round runs, two with tracing), checks every output
against the reference checker in ``checker.py``, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``wall_s``, ``peak_rss_mb``, ``latency_p50_ms``, ``latency_p99_ms``. With
``--trace 1`` rounds alternate untraced and traced, and the metrics are the
per-layer ones, taken from the traced rounds; ``trace.overhead_s`` is the
difference between the two kinds of round. The spans go to
``bench/out/trace-<workload>-<seed>.jsonl`` and the per-layer numbers, each
ratio with its base, to ``bench/out/layers-<workload>-<seed>.json``.

Every run pins ``TRUSSLAB_THREADS=1`` and one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import Tracer, charge  # noqa: E402

import workloads  # noqa: E402

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


def _import_program() -> None:
    """Put the checkout's src/ first on the path and make sure trusslab is
    imported from there, not from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "trusslab", "__init__.py")):
        raise SystemExit(f"bench: no trusslab sources under {SRC}")
    sys.path.insert(0, SRC)


def _check_origin() -> None:
    mod = sys.modules.get("trusslab")
    path = os.path.abspath(getattr(mod, "__file__", "") or "")
    if not path.startswith(SRC + os.sep):
        raise SystemExit(f"bench: trusslab was imported from {path}, not from {SRC}")


def _setup_probes(workload: str, seed: int) -> list[float]:
    """Set-up time, measured in fresh interpreters so the import counts."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _layer_metrics(tracer: Tracer, traced_rounds: list[int], traced_walls, untraced_walls,
                   output_bytes):
    """Per-layer numbers of each traced round, then their medians."""
    per_round = charge(tracer.spans, [-1] + traced_rounds)
    setup = per_round[-1]
    rows = []
    for r in traced_rounds:
        rec = per_round[r]
        ch, calls, info = rec["charged"], rec["calls"], rec["info"]
        candidates = sum(i["candidates"] for i in info)
        structures = sum(i["structures"] for i in info)
        verify_calls = calls.get("structures.verify", 0)
        rows.append({
            "groups.endomorphisms_calls": calls.get("groups.endomorphisms", 0)
            + setup["calls"].get("groups.endomorphisms", 0),
            "groups.endomorphisms_s": ch.get("groups.endomorphisms", 0.0)
            + setup["charged"].get("groups.endomorphisms", 0.0),
            "enumeration.search_s": ch.get("enumeration.enumerate", 0.0),
            "enumeration.candidates": candidates,
            "enumeration.structures": structures,
            "enumeration.yield": structures / candidates if candidates else 0.0,
            "enumeration.canonical_form_s": ch.get("enumeration.canonical_form", 0.0),
            "enumeration.canonical_form_calls": calls.get("enumeration.canonical_form", 0),
            "enumeration.canonical_verify_s": rec["nested"].get(
                ("enumeration.canonical_form", "structures.verify"), 0.0),
            "enumeration.relabel_calls": calls.get("enumeration.relabel", 0),
            "enumeration.classes": sum(i["classes"] for i in info),
            "enumeration.isomorphic_s": ch.get("enumeration.isomorphic", 0.0),
            "structures.verify_calls": verify_calls,
            "structures.verify_s": ch.get("structures.verify", 0.0),
            "structures.verify_per_structure": verify_calls / structures if structures else 0.0,
            "structures.parse_s": ch.get("structures.parse", 0.0),
            "structures.check_s": ch.get("structures.check", 0.0),
            "structures.report_s": ch.get("structures.report", 0.0),
            "transforms.convert_calls": calls.get("transforms.convert", 0),
            "transforms.convert_s": ch.get("transforms.convert", 0.0),
            "substructure.ideals_s": ch.get("substructure.ideals", 0.0),
            "substructure.congruences_s": ch.get("substructure.congruences", 0.0),
            "substructure.decompose_s": ch.get("substructure.decompose", 0.0),
            "cli.self_s": ch.get("cli.job", 0.0),
            "cli.output_bytes": output_bytes[traced_rounds.index(r)],
            "trace.spans": sum(calls.values()),
            "_charged": ch,
        })
    metrics = {}
    for name in rows[0]:
        if name != "_charged":
            metrics[name] = statistics.median(row[name] for row in rows)
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["trace.round_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    ratios = {
        "enumeration.yield": ("enumeration.structures", "enumeration.candidates"),
        "structures.verify_per_structure": ("structures.verify_calls", "enumeration.structures"),
    }
    detail = {
        "traced_rounds": len(traced_rounds),
        "untraced_rounds": len(untraced_walls),
        "untraced_round_s": untraced,
        "metrics": metrics,
        "ratios": {
            name: {"value": metrics[name], "numerator": metrics[num], "numerator_name": num,
                   "denominator": metrics[den], "denominator_name": den}
            for name, (num, den) in ratios.items()
        },
        "overhead": {"value": (traced - untraced) / untraced, "numerator": traced - untraced,
                     "numerator_name": "trace.overhead_s", "denominator": untraced,
                     "denominator_name": "median untraced round, s"},
        "charged_s_per_round": [row["_charged"] for row in rows],
        "setup_charged_s": setup["charged"],
        "setup_calls": setup["calls"],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trusslab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # before numpy is imported; the set-up probes inherit it
    for var in ("TRUSSLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    setup_fn, round_fn, check_fn, bytes_fn = workloads.WORKLOADS[args.workload]

    clock = time.perf_counter
    if args.probe_setup:
        state = setup_fn(args.seed, ROOT, Tracer(False), clock)
        _check_origin()
        print(state["setup_s"])
        return 0

    setup_times = _setup_probes(args.workload, args.seed) if args.trace == 0 else []
    tracer = Tracer(args.trace == 1)
    state = setup_fn(args.seed, ROOT, tracer, clock)
    _check_origin()

    latencies: list[float] = []
    walls = {True: [], False: []}
    traced_rounds: list[int] = []
    problems: list[str] = []
    attempted = failed = 0
    output_bytes = []
    measured = 0.0
    r = 0
    while True:
        traced = args.trace == 1 and r % 2 == 1
        tracer.round = r
        if traced:
            workloads.install_patches(state["lib"], tracer)
        t0 = clock()
        try:
            results = round_fn(state, tracer if traced else Tracer(False), clock)
        finally:
            tracer.unpatch()
        wall = clock() - t0
        walls[traced].append(wall)
        if traced:
            traced_rounds.append(r)
            output_bytes.append(bytes_fn(results))
        else:
            latencies.extend(x[1] for x in results)
        round_problems, round_failed = check_fn(state, results)
        problems += round_problems
        attempted += len(results)
        failed += round_failed
        r += 1
        measured += wall
        if r >= (2 if args.trace == 1 else 1) and measured + wall > args.seconds:
            break

    for p in problems[:20]:
        print(f"bench: {p}", file=sys.stderr)
    print(f"bench: {r} rounds, untraced round walls "
          f"{[round(w, 4) for w in walls[False]]}", file=sys.stderr)
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.trace == 0:
        p50 = statistics.median(latencies)
        # the highest percentile reported is one with at least ten samples
        # beyond it; below forty samples there is none, and p99 is the median
        p99 = (statistics.quantiles(latencies, n=100, method="inclusive")[98]
               if len(latencies) >= 40 else p50)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_p99_ms": (p99 * 1e3, "ms"),
        }
    else:
        layer, detail = _layer_metrics(tracer, traced_rounds, walls[True], walls[False],
                                       output_bytes)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
        with open(os.path.join(out_dir, f"layers-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(detail, fh, indent=2, sort_keys=True)
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("yield", "per_structure")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
