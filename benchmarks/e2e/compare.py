"""Judge one suite result against another by ``BENCHMARK.json``'s bounds.

For every workload and end-to-end metric: both medians, the ratio B/A
with its base, the bound, and a verdict —

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: not worse, but the run-to-run spread of either side
  (distance between the quartiles over the median) is wider than the
  bound, so "unchanged" cannot be told from "changed";
* ``ok``: neither.

A side measured with fewer than two runs has no spread and cannot be
``unresolved``; run the suite with ``--runs 5`` or more before relying
on an ``ok``.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Optional


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median; None if < 2 runs."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    if worse_by > bound:
        return "worse"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    return "ok"


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    """Print the comparison; return 1 if any pairing is ``worse``."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12} {'metric':<16} {'A':>11} {'B':>11} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    worse = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            cell_a = a[name]["end_to_end"][metric["name"]]
            cell_b = b[name]["end_to_end"][metric["name"]]
            outcome = verdict(
                cell_a["values"], cell_b["values"], metric["better"],
                metric["bound"],
            )
            worse += outcome == "worse"
            spreads = [
                "-" if s is None else f"{s:.3f}"
                for s in (spread(cell_a["values"]), spread(cell_b["values"]))
            ]
            print(
                f"{name:<12} {metric['name']:<16} {cell_a['value']:>11.5g} "
                f"{cell_b['value']:>11.5g} "
                f"{cell_b['value'] / cell_a['value']:>7.3f} "
                f"{spreads[0]:>9} {spreads[1]:>9} {metric['bound']:>6.2f}  "
                f"{outcome} ({metric['unit']}, base A)"
            )
        for key in ("failed_frac", "output_mismatch_frac"):
            rose = b[name][key] > a[name][key]
            worse += rose
            print(f"{name:<12} {key:<16} {a[name][key]:>11.5g} "
                  f"{b[name][key]:>11.5g} {'':>7} {'':>9} {'':>9} {'':>6}  "
                  f"{'worse' if rose else 'ok'} (may not rise)")
    return 1 if worse else 0
