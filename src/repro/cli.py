"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the nine evaluated workloads and their properties.
* ``run`` — answer one workload under epsilon-iDP and print the result.
* ``run-sql`` — answer an ad-hoc SQL counting/sum query over a
  generated TPC-H dataset (compiled by the provenance bridge).
* ``compare`` — UPA vs FLEX vs brute force sensitivities for one
  workload.
* ``report`` — render the per-phase time breakdown, the engine jobs
  with their tasks and retries, and the privacy-ledger summary (per
  query: releases, replays, refusals, how the inferred sensitivity
  spread and how often the range clamped) from trace/ledger artifacts
  written by ``run``/``run-sql``/``compare``.

Observability is opt-in and documented in ``docs/observability.md``:
``--trace`` writes a Chrome trace-event JSON (load in
``chrome://tracing``) and ``--ledger`` writes the append-only privacy
audit ledger as JSONL.

Exit status: 0 on success; 2 on a usage error (a bad argument, a
missing artifact, ``--append`` holding back the whole protected
table); 3 when RANGE ENFORCER refuses a release of ``run --append``
(a small append can look neighbouring to the release before it).  A
refusal still writes ``--ledger`` and ``--trace``, the ledger ending
in the ``refused`` row, and prints one ``refused:`` line to stderr.
``run-sql`` and ``compare`` make one release on a fresh session, which
RANGE ENFORCER cannot refuse (it has no prior), so they never exit 3.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__
from repro.analysis import format_table
from repro.core import UPAConfig, UPASession
from repro.core.session import ReleaseRefused
from repro.engine.metrics import MetricsRegistry


def _add_observability_args(parser: argparse.ArgumentParser,
                            ledger: bool = True) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event JSON of the run to PATH",
    )
    if ledger:
        parser.add_argument(
            "--ledger", metavar="PATH",
            help="write the privacy audit ledger (JSONL) to PATH",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UPA (DSN 2020) reproduction: differentially private "
        "big-data mining",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the nine evaluated workloads")

    run = sub.add_parser("run", help="run one workload under epsilon-iDP")
    run.add_argument("workload", help="workload name, e.g. tpch6")
    run.add_argument("--scale", type=int, default=20_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--epsilon", type=float, default=0.1)
    run.add_argument("--sample-size", type=int, default=1000)
    run.add_argument(
        "--append", metavar="N", type=int, default=0,
        help="after the initial release, append N records per step via "
        "the incremental session path (each append is a fresh release "
        "charging --epsilon again)",
    )
    run.add_argument(
        "--append-steps", metavar="K", type=int, default=1,
        help="with --append: number of append steps (default: 1)",
    )
    _add_observability_args(run)

    sql = sub.add_parser(
        "run-sql", help="run an ad-hoc SQL query over generated TPC-H data"
    )
    sql.add_argument("query", help="SQL text (single COUNT/SUM)")
    sql.add_argument("--protect", required=True, help="protected table")
    sql.add_argument("--scale", type=int, default=20_000)
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument("--epsilon", type=float, default=0.1)
    _add_observability_args(sql)

    cmp_parser = sub.add_parser(
        "compare", help="UPA vs FLEX vs brute-force sensitivity"
    )
    cmp_parser.add_argument("workload")
    cmp_parser.add_argument("--scale", type=int, default=20_000)
    cmp_parser.add_argument("--seed", type=int, default=0)
    _add_observability_args(cmp_parser, ledger=False)

    report = sub.add_parser(
        "report",
        help="per-phase time breakdown + privacy ledger summary from "
        "artifacts written by run/compare",
    )
    report.add_argument(
        "--trace", metavar="PATH", help="Chrome trace JSON written by --trace"
    )
    report.add_argument(
        "--ledger", metavar="PATH", help="ledger JSONL written by --ledger"
    )
    report.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    return parser


def _cmd_list() -> int:
    from repro.workloads import all_workloads

    rows = [
        [w.name, w.query_type, w.query.protected_table,
         "yes" if w.flex_supported else "no"]
        for w in all_workloads()
    ]
    print(format_table(
        ["workload", "type", "protected table", "FLEX support"], rows
    ))
    return 0


def _setup_observability(args, **config_fields):
    """(tracer, ledger) per the command's ``--trace`` / ``--ledger``.

    Both artifacts share one self-describing header: repro + python
    versions plus the run configuration (epsilon, n, seed, ...).
    """
    from repro.obs import PrivacyLedger, Tracer, run_header

    header = run_header(**config_fields)
    tracer = Tracer(header=header) if getattr(args, "trace", None) else None
    ledger = (
        PrivacyLedger(header=header) if getattr(args, "ledger", None)
        else None
    )
    return tracer, ledger


def _emit_observability(args, tracer, ledger) -> None:
    """Write the requested artifacts and print where they landed."""
    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
        print(f"trace written to {args.trace} "
              f"({len(tracer)} spans; open in chrome://tracing)")
    if ledger is not None:
        ledger.write_jsonl(args.ledger)
        print(f"privacy ledger written to {args.ledger} "
              f"({len(ledger)} entries)")


def _cmd_run(args) -> int:
    from repro.obs.tracing import use_tracer
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload)
    append_n = max(0, args.append)
    append_steps = max(1, args.append_steps) if append_n else 0
    # Appended records come from generating the *grown* dataset once
    # and holding back the last N*K protected rows, so every step
    # appends realistic rows whatever the protected table's size.
    held = append_n * append_steps
    tables = workload.make_tables(args.scale + held, args.seed)
    protected = workload.query.protected_table
    protected_rows = tables[protected]
    if held and len(protected_rows) <= held:
        print(f"error: --append {append_n} x {append_steps} steps holds "
              f"back {held} {protected} rows, but {args.workload} at "
              f"--scale {args.scale} generates only "
              f"{len(protected_rows)}",
              file=sys.stderr)
        return 2
    held_back = protected_rows[len(protected_rows) - held:]
    del protected_rows[len(protected_rows) - held:]
    tracer, ledger = _setup_observability(
        args, command="run", workload=args.workload, epsilon=args.epsilon,
        sample_size=args.sample_size, seed=args.seed, scale=args.scale,
    )
    session = UPASession(
        UPAConfig(sample_size=args.sample_size, seed=args.seed),
        tracer=tracer,
        ledger=ledger,
    )
    try:
        with use_tracer(tracer):
            result = session.run(
                workload.query, tables, epsilon=args.epsilon
            )
            for step in range(append_steps):
                chunk = held_back[step * append_n:(step + 1) * append_n]
                result = session.append(chunk, epsilon=args.epsilon)
                mapped = int(result.metrics.get(
                    MetricsRegistry.INCR_RECORDS_MAPPED
                ))
                reused = int(result.metrics.get(
                    MetricsRegistry.INCR_RECORDS_REUSED
                ))
                # A release that could not continue the window ran
                # cold: it counts neither, and its delta fraction is 1.
                fraction = (
                    mapped / (mapped + reused) if mapped + reused else 1.0
                )
                print(
                    f"append {step + 1}/{append_steps}: +{len(chunk)} "
                    f"records, released in {result.elapsed_seconds:.3f}s "
                    f"(delta fraction {fraction:.4f}, "
                    f"{mapped} records mapped, {reused} reused)"
                )
    except ReleaseRefused as refusal:
        # Nothing was released or charged; the ledger ends in the
        # refused row, so the artifacts are written all the same.
        _emit_observability(args, tracer, ledger)
        print(f"refused: {refusal}", file=sys.stderr)
        return 3
    truth = workload.query.output(tables)
    rows = [
        ["true answer", truth[0] if truth.shape[0] == 1 else list(truth)],
        ["released (noisy)", result.noisy_scalar()
         if truth.shape[0] == 1 else list(result.noisy_output)],
        ["inferred sensitivity", result.local_sensitivity],
        ["epsilon", args.epsilon],
        ["sample size n", result.sample_size],
        ["elapsed seconds", result.elapsed_seconds],
    ]
    print(format_table(["field", "value"], rows))
    _emit_observability(args, tracer, ledger)
    return 0


def _cmd_run_sql(args) -> int:
    from repro.tpch import TPCHConfig, TPCHGenerator
    from repro.tpch.queries import base as samplers

    tables = TPCHGenerator(
        TPCHConfig(scale_rows=args.scale, seed=args.seed)
    ).generate()
    domain_samplers = {
        "lineitem": samplers.random_lineitem,
        "orders": samplers.random_order,
        "customer": samplers.random_customer,
        "part": samplers.random_part,
        "partsupp": samplers.random_partsupp,
        "supplier": samplers.random_supplier,
    }
    sampler = domain_samplers.get(args.protect)
    if sampler is None:
        print(f"error: no domain sampler for table {args.protect!r}; "
              f"choose one of {sorted(domain_samplers)}", file=sys.stderr)
        return 2
    from repro.obs.tracing import use_tracer

    tracer, ledger = _setup_observability(
        args, command="run-sql", sql=args.query, epsilon=args.epsilon,
        sample_size=1000, seed=args.seed, scale=args.scale,
    )
    session = UPASession(
        UPAConfig(sample_size=1000, seed=args.seed), tracer=tracer,
        ledger=ledger,
    )
    with use_tracer(tracer):
        result = session.run_sql(
            args.query, tables, protected_table=args.protect,
            epsilon=args.epsilon, domain_sampler=sampler,
        )
    rows = [
        ["query", args.query],
        ["true answer", result.plain_output[0]],
        ["released (noisy)", result.noisy_scalar()],
        ["inferred sensitivity", result.local_sensitivity],
    ]
    print(format_table(["field", "value"], rows))
    _emit_observability(args, tracer, ledger)
    return 0


def _cmd_compare(args) -> int:
    from repro.baselines import exact_local_sensitivity, flex_local_sensitivity
    from repro.common.errors import FlexUnsupportedError
    from repro.obs.tracing import use_tracer
    from repro.sql import SQLSession
    from repro.tpch.datagen import register_tables
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload)
    tables = workload.make_tables(args.scale, args.seed)
    tracer, _ = _setup_observability(
        args, command="compare", workload=args.workload, seed=args.seed,
        scale=args.scale, epsilon=0.1, sample_size=1000,
    )
    session = UPASession(
        UPAConfig(sample_size=1000, seed=args.seed), tracer=tracer
    )
    # One ambient tracer scope so the UPA pipeline and both baselines
    # emit into the same trace and can be compared span for span.
    with use_tracer(tracer):
        truth = exact_local_sensitivity(
            workload.query, tables, addition_samples=500
        )
        result = session.run(workload.query, tables, epsilon=0.1)

        flex_text = "unsupported"
        if hasattr(workload.query, "sql_text"):
            sql = SQLSession()
            register_tables(sql, tables)
            try:
                flex_text = flex_local_sensitivity(
                    sql.sql(workload.query.sql_text()).plan, tables
                ).sensitivity
            except FlexUnsupportedError:
                pass
    rows = [
        ["brute force (ground truth)", truth.local_sensitivity],
        ["UPA (inferred)", result.estimated_local_sensitivity],
        ["FLEX (static)", flex_text],
    ]
    print(format_table(["system", "local sensitivity"], rows))
    _emit_observability(args, tracer, None)
    return 0


def _cmd_report(args) -> int:
    import os

    from repro.obs import ObservedRun

    if not (args.trace or args.ledger):
        print("repro report: pass --trace and/or --ledger",
              file=sys.stderr)
        return 2
    for path in (args.trace, args.ledger):
        if path and not os.path.exists(path):
            print(f"repro report: no such file: {path}", file=sys.stderr)
            return 2
    observed = ObservedRun.from_artifacts(
        trace_path=args.trace, ledger_path=args.ledger,
    )
    print(observed.render_json() if args.json else observed.render_text())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "run-sql":
            return _cmd_run_sql(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "report":
            return _cmd_report(args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
