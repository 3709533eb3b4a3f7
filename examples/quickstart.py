"""Quickstart: answer a counting query under epsilon-iDP with UPA.

Run with:  python examples/quickstart.py

Walks the whole pipeline on a generated TPC-H dataset:
1. generate data;
2. run TPC-H Q1 (a count) under UPA with automatically inferred
   sensitivity;
3. compare the noisy answer to the true one;
4. show the low-level Table I operator API doing the same thing;
5. rerun it on an engine that fails task attempts: the engine retries
   them from lineage and the result does not change.
"""

from repro import EngineContext, UPAConfig, UPASession, dpread
from repro.dp import PrivacyAccountant
from repro.engine import FaultInjector
from repro.tpch import TPCHConfig, TPCHGenerator, query_by_name


def main() -> None:
    # -- 1. data ------------------------------------------------------------
    tables = TPCHGenerator(TPCHConfig(scale_rows=20_000, seed=42)).generate()
    print(f"generated {len(tables['lineitem'])} lineitems, "
          f"{len(tables['orders'])} orders")

    # -- 2. one UPA query -----------------------------------------------------
    query = query_by_name("tpch1")  # SELECT COUNT(*) FROM lineitem
    session = UPASession(
        UPAConfig(sample_size=1000, seed=0),
        accountant=PrivacyAccountant(total_epsilon=1.0),
    )
    result = session.run(query, tables, epsilon=0.5)

    # -- 3. what happened ------------------------------------------------------
    true_count = query.output(tables)[0]
    print(f"\ntrue count                    : {true_count:.0f}")
    print(f"noisy count (released)        : {result.noisy_scalar():.2f}")
    print(f"inferred local sensitivity    : {result.local_sensitivity:.3f}")
    print(f"inferred output range         : "
          f"[{result.inferred_range.lower[0]:.1f}, "
          f"{result.inferred_range.upper[0]:.1f}]")
    print(f"sampled neighbouring datasets : {result.sample_size} removals "
          f"+ {result.sample_size} additions")
    print(f"end-to-end time               : {result.elapsed_seconds:.2f}s")

    # -- 4. the Table I operator API -------------------------------------------
    engine = EngineContext()
    rdd = engine.parallelize(tables["lineitem"])
    dpo = dpread(rdd, sample_size=100, seed=1)
    neighbours, total = dpo.map_dp(lambda _rec: 1).reduce_dp(
        lambda a, b: a + b
    )
    print(f"\ndpread/mapDP/reduceDP         : result={total}, "
          f"neighbour outputs all equal {neighbours[0]}")

    # -- 5. the same operators under task failures ----------------------------
    with EngineContext() as faulty:
        faulty.install_fault_injector(
            FaultInjector(failure_probability=0.3, max_failures=3, seed=0)
        )
        dpo = dpread(faulty.parallelize(tables["lineitem"]), 100, seed=1)
        _, retried = dpo.map_dp(lambda _rec: 1).reduce_dp(lambda a, b: a + b)
    print(f"reduceDP with failed tasks    : result={retried}, "
          f"identical={retried == total}")


if __name__ == "__main__":
    main()
