"""End-to-end release-cost benchmark: one command, six workloads.

Three ways to call it (from the repository root):

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, the form ``BENCHMARK.json`` names.  The
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``).

``python3 benchmarks/e2e/run.py [--seed N] [--runs R] [--smoke] [--out F]``
    The whole suite: every workload in its own subprocess, untraced and
    traced, ``R`` times; prints every metric by name with its unit and
    writes a result JSON with its provenance and, gzipped beside it,
    the traced run's spans.

``python3 benchmarks/e2e/run.py --compare A.json B.json``
    Judge result B against result A by the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: set-ups per run (this process's own plus child processes that only
#: set up); ``setup_s`` is their median.
SETUPS = 3
SMOKE_SECONDS = 0.5


def _use_repo_imports() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable.

    Run as a script, ``sys.path[0]`` is this directory, where
    ``trace.py`` would shadow the standard library's ``trace``.
    """
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        del sys.path[0]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def load_benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def _set_up(name: str, seed: int, smoke: bool):
    """Import, generate, and open the first round up to its first step.

    Everything that happens before the first timed release: imports,
    dataset generation, the first table copy and session, and for
    ``incr_window`` the priming runs.  Returns the seconds it took (at
    reference machine speed, see ``measure.py``) and what the measuring
    loop continues from.
    """
    started = time.perf_counter()
    _use_repo_imports()
    from itertools import chain

    from benchmarks.e2e.measure import (
        PLAIN,
        calibration_ns,
        open_round,
        speed_factor,
    )
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[name](smoke=smoke)
    data = workload.prepare(seed)
    first_round = open_round(workload, data, seed, PLAIN)
    first_step = next(first_round)
    seconds = time.perf_counter() - started
    seconds *= speed_factor([calibration_ns() for _ in range(15)])
    return seconds, workload, data, chain([first_step], first_round)


def _child_setup_seconds(name: str, seed: int) -> float:
    """Set up once more in a fresh process (imports included)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, detail_out: Optional[str] = None) -> dict:
    """One run; returns the driver-contract result object."""
    setup_seconds, workload, data, first_round = _set_up(name, seed, smoke)
    from benchmarks.e2e.measure import (
        PLAIN,
        Harness,
        end_to_end_metrics,
        per_layer_metrics,
        speed_factor,
    )

    setups = [setup_seconds]
    if not trace and not smoke:
        setups.extend(
            _child_setup_seconds(name, seed) for _ in range(SETUPS - 1)
        )
    harness = Harness(workload, seed, trace)
    harness.run(data, seconds, first_round)
    passes = harness.passes.values()
    if trace:
        metrics = per_layer_metrics(harness)
    else:
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics = end_to_end_metrics(
            harness, statistics.median(setups), peak_rss_mb
        )
    result = {
        "correct": all(p.mismatched == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    if detail_out is not None:
        plain = harness.passes[PLAIN]
        release, vanilla = plain.scaled_ms()
        detail = dict(result)
        detail.update({
            "rounds": harness.rounds,
            "measured_seconds": harness.measured_seconds,
            "setup_seconds": setups,
            "mismatched": sum(p.mismatched for p in passes),
            "releases": {m: p.attempted for m, p in harness.passes.items()},
            #: reported times = measured times x this (run median).
            "speed_factor": speed_factor(plain.calibration),
            #: sample count behind each group's percentiles.
            "plain_samples": {g: len(v) for g, v in sorted(release.items())},
            "vanilla_samples": {g: len(v) for g, v in sorted(vanilla.items())},
            "plain_p50_ms": {
                g: statistics.median(v) for g, v in sorted(release.items())
            },
            "vanilla_p50_ms": {
                g: statistics.median(v) for g, v in sorted(vanilla.items())
            },
        })
        if trace:
            detail["spans"] = harness.recorder.dump()
        Path(detail_out).write_text(json.dumps(detail))
    return result


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD's hash, with ``-dirty`` when the work tree differs from it."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--abbrev=40"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _suite_run(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool, scratch: Path) -> dict:
    """One workload run in its own subprocess; returns its detail."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--detail-out", str(scratch),
    ]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(
            f"workload {name} (trace {int(trace)}) exited with "
            f"{done.returncode}; no numbers for it"
        )
    detail = json.loads(scratch.read_text())
    scratch.unlink()
    detail["wall_seconds"] = wall
    return detail


def run_suite(seed: int, seconds: float, runs: int, smoke: bool,
              out: Path) -> int:
    """Every workload, untraced and traced, ``runs`` times each."""
    spec = load_benchmark_json()
    out.parent.mkdir(parents=True, exist_ok=True)
    document: Dict[str, Any] = {
        "provenance": {
            "git_commit": _git_commit(),
            "seed": seed,
            "seconds": seconds,
            "runs": runs,
            "smoke": smoke,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "workloads": {},
    }
    spans: Dict[str, Any] = {}
    bad = 0
    for workload in spec["workloads"]:
        name = workload["name"]

        def one_run(job, name=name):
            number, trace = job
            scratch = out.with_suffix(f".partial{number}")
            return _suite_run(name, seed, seconds, trace, smoke, scratch)

        jobs = list(enumerate([False] * runs + [True] * runs))
        # Smoke timings mean nothing, so its runs may share the machine.
        with ThreadPoolExecutor(max_workers=2 if smoke else 1) as pool:
            details = list(pool.map(one_run, jobs))
        untraced, traced = details[:runs], details[runs:]
        spans[name] = traced[-1].pop("spans")
        for detail in traced[:-1]:
            del detail["spans"]
        attempted = sum(d["attempted"] for d in details)
        failed = sum(d["failed"] for d in details)
        mismatched = sum(d["mismatched"] for d in details)
        bad += failed + mismatched
        document["workloads"][name] = {
            "failed_frac": failed / attempted,
            "output_mismatch_frac": mismatched / attempted,
            "end_to_end": _medians(untraced),
            "per_layer": _medians(traced),
            "untraced_runs": untraced,
            "traced_runs": traced,
        }
        _print_workload(name, document["workloads"][name])
    out.write_text(json.dumps(document, indent=1))
    spans_out = out.with_suffix(".spans.json.gz")
    with gzip.open(spans_out, "wt") as handle:
        json.dump(spans, handle)
    print(f"wrote {out} and {spans_out}")
    return 1 if bad else 0


def _medians(details: List[dict]) -> Dict[str, dict]:
    """Per metric: the runs' values, their median, and the unit."""
    merged: Dict[str, dict] = {}
    for name, first in details[0]["metrics"].items():
        values = [d["metrics"][name]["value"] for d in details]
        merged[name] = {
            "value": statistics.median(values),
            "unit": first["unit"],
            "values": values,
        }
    return merged


def _print_workload(name: str, entry: dict) -> None:
    runs = entry["untraced_runs"]
    samples = sum(runs[0]["plain_samples"].values())
    print(f"\n== {name}: {samples} releases behind each percentile "
          f"(per query: {runs[0]['plain_samples']}), "
          f"{runs[0]['rounds']} rounds, "
          f"{runs[0]['wall_seconds']:.1f} s wall ==")
    print(f"  {'failed_frac':<36}{entry['failed_frac']:>14.6g}")
    print(f"  {'output_mismatch_frac':<36}"
          f"{entry['output_mismatch_frac']:>14.6g}")
    for section in ("end_to_end", "per_layer"):
        for metric, cell in entry[section].items():
            print(f"  {metric:<36}{cell['value']:>14.6g} {cell['unit']}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the work: checks names and "
                             "outputs, not speed")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: runs per workload and trace mode")
    parser.add_argument("--out", type=Path, help="suite: result JSON path")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        _use_repo_imports()
        from benchmarks.e2e.compare import compare_files

        return compare_files(*args.compare, spec=load_benchmark_json())
    if args.setup_only:
        print(repr(_set_up(args.workload, args.seed, args.smoke)[0]))
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = (
            SMOKE_SECONDS if args.smoke
            else float(load_benchmark_json()["run_seconds"])
        )
    if args.workload:
        result = run_workload(
            args.workload, args.seed, seconds, bool(args.trace),
            smoke=args.smoke, detail_out=args.detail_out,
        )
        if args.detail_out is None:  # else the suite prints the table
            for name, cell in result["metrics"].items():
                sys.stderr.write(
                    f"{name:<36}{cell['value']:>14.6g} {cell['unit']}\n"
                )
        print(json.dumps(result))
        return 0
    out = args.out or RESULTS / (
        f"{'smoke' if args.smoke else 'run'}_seed{args.seed}.json"
    )
    return run_suite(args.seed, seconds, args.runs, args.smoke, out)


if __name__ == "__main__":
    sys.exit(main())
