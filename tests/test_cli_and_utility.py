"""Tests for the CLI and the utility-analysis module."""

import pytest

from repro.analysis.utility import (
    UtilityStudy,
    noise_with_sensitivity,
    released_error_curve,
)
from repro.cli import main
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.workload import query_by_name


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tpch21" in out and "kmeans" in out

    def test_run(self, capsys):
        assert main(
            ["run", "tpch1", "--scale", "2000", "--epsilon", "1.0",
             "--sample-size", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "released (noisy)" in out
        assert "2000" in out  # the true count appears

    def test_run_append_prints_records_mapped_and_reused(self, capsys):
        assert main(
            ["run", "tpch6", "--scale", "2000", "--sample-size", "100",
             "--append", "40", "--append-steps", "2"]
        ) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("append ")
        ]
        assert len(lines) == 2
        # The first append maps the whole window, the second only the
        # 40 records it appended.
        assert lines[0].startswith("append 1/2: +40 records, released in ")
        assert lines[0].endswith(
            "(delta fraction 1.0000, 2040 records mapped, 0 reused)"
        )
        assert lines[1].startswith("append 2/2: +40 records, released in ")
        assert lines[1].endswith(
            "(delta fraction 0.0192, 40 records mapped, 2040 reused)"
        )

    @pytest.mark.parametrize(
        "name", ["tpch4", "tpch11", "tpch13", "tpch16", "tpch21"]
    )
    def test_run_append_holds_back_the_tail_of_a_small_table(
        self, name, capsys
    ):
        """Their protected tables hold far fewer rows than --scale: the
        appended rows are the last N*K of the table generated at the
        grown scale.  (At this sample size and seed RANGE ENFORCER
        refuses none of the five appends' releases.)"""
        from repro.workloads import workload_by_name

        assert main(
            ["run", name, "--scale", "2000", "--sample-size", "200",
             "--seed", "1", "--append", "20", "--append-steps", "2"]
        ) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("append ")
        ]
        workload = workload_by_name(name)
        grown = len(workload.make_tables(2040, 1)[
            workload.query.protected_table
        ])
        assert len(lines) == 2
        assert lines[0].startswith("append 1/2: +20 records, released in ")
        assert lines[0].endswith(
            f"(delta fraction 1.0000, {grown - 20} records mapped, 0 reused)"
        )
        assert lines[1].startswith("append 2/2: +20 records, released in ")
        assert lines[1].endswith(
            f"(delta fraction {20 / grown:.4f}, 20 records mapped, "
            f"{grown - 20} reused)"
        )

    def test_run_append_past_the_protected_table_exits_2(self, capsys):
        # tpch21's supplier table has 12 rows at --scale 400 + 80
        assert main(
            ["run", "tpch21", "--scale", "400", "--append", "40",
             "--append-steps", "2"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: --append 40 x 2 steps holds back 80 supplier rows"
        )
        assert len(captured.err.splitlines()) == 1
        assert "released" not in captured.out

    def test_a_refused_append_keeps_the_ledger_and_exits_3(
        self, capsys, tmp_path
    ):
        """tpch21's second 20-record append looks neighbouring to the
        first; RANGE ENFORCER refuses it, and the artifacts of the two
        releases before it, and of the refusal, are written."""
        from repro.obs import ObservedRun

        ledger, trace = tmp_path / "l.jsonl", tmp_path / "t.json"
        assert main(
            ["run", "tpch21", "--scale", "2000", "--sample-size", "100",
             "--seed", "0", "--append", "20", "--append-steps", "2",
             "--ledger", str(ledger), "--trace", str(trace)]
        ) == 3
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("refused: RANGE ENFORCER exhausted")
        assert trace.exists()
        observed = ObservedRun.from_artifacts(
            trace_path=str(trace), ledger_path=str(ledger)
        )
        entries = observed.ledger_entries
        assert [entry.refused for entry in entries] == [False, False, True]
        assert [entry.epsilon_charged for entry in entries] == [0.1, 0.1, 0.0]
        (row,) = observed.query_summary()
        assert (row["releases"], row["refused"]) == (2, 1)

    def test_run_vector_workload(self, capsys):
        assert main(
            ["run", "linreg", "--scale", "500", "--sample-size", "50"]
        ) == 0
        assert "inferred sensitivity" in capsys.readouterr().out

    def test_run_sql(self, capsys):
        assert main(
            ["run-sql", "SELECT COUNT(*) AS n FROM customer",
             "--protect", "customer", "--scale", "2000"]
        ) == 0
        assert "released" in capsys.readouterr().out

    def test_run_sql_unknown_protect(self, capsys):
        assert main(
            ["run-sql", "SELECT COUNT(*) AS n FROM nation",
             "--protect", "nation", "--scale", "2000"]
        ) == 2
        assert "no domain sampler" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        # refused by the bridge: a scalar subquery over the protected
        # table, and an aggregate that is not linear
        ("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity > "
         "(SELECT AVG(l_quantity) FROM lineitem)", "scalar subquery"),
        ("SELECT MAX(l_quantity) AS n FROM lineitem", "MAX is not linear"),
        # does not parse; names what the tables lack
        ("SELECT COUNT(*) AS n FROM lineitem WHERE", "unexpected token"),
        ("SELECT COUNT(*) AS n FROM nowhere", "unknown table 'nowhere'"),
        # a subquery predicate the planner cannot turn into a join
        ("SELECT COUNT(*) AS n FROM lineitem WHERE l_orderkey IN "
         "(SELECT o_orderkey FROM orders) OR l_quantity < 5",
         "top-level AND conjunct"),
        # more than one aggregate row: the parser names the clause
        ("SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
         "GROUP BY l_returnflag", "GROUP BY output is not a scalar query"),
        ("SELECT COUNT(*) AS n FROM lineitem HAVING COUNT(*) > 1",
         "HAVING"),
        ("SELECT COUNT(*) AS n FROM lineitem ORDER BY n", "ORDER BY"),
        ("SELECT COUNT(*) AS n FROM lineitem LIMIT 1", "LIMIT"),
        ("SELECT COUNT(*) AS n FROM lineitem UNION ALL "
         "SELECT COUNT(*) AS n FROM lineitem", "UNION ALL"),
    ], ids=["scalar-subquery", "max", "parse", "analysis", "subquery-or",
            "group-by", "having", "order-by", "limit", "union-all"])
    def test_run_sql_refused_or_bad_text_exits_2(self, capsys, text,
                                                 message):
        """One error line and exit 2, the usage error: up to 1.32.0 the
        first released, and the others ended in a traceback; up to
        1.33.0 the fifth started a release and printed the parser's
        internal "subquery marker" message; up to 1.34.0 the ORDER BY
        and LIMIT texts were released as if the clause were absent."""
        assert main(
            ["run-sql", text, "--protect", "lineitem", "--scale", "2000"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "released" not in captured.out

    def test_compare(self, capsys):
        assert main(["compare", "tpch1", "--scale", "2000"]) == 0
        out = capsys.readouterr().out
        assert "brute force" in out and "FLEX" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "tpch99"])


class TestUtility:
    @pytest.fixture(scope="class")
    def tables(self):
        return TPCHGenerator(TPCHConfig(scale_rows=2000, seed=8)).generate()

    def test_error_decreases_with_epsilon(self, tables):
        study = released_error_curve(
            query_by_name("tpch1"), tables,
            epsilons=(0.01, 10.0), trials=6, sample_size=100,
        )
        assert isinstance(study, UtilityStudy)
        low_eps, high_eps = study.points
        assert low_eps.mean_absolute_error > high_eps.mean_absolute_error

    def test_relative_error_normalized(self, tables):
        study = released_error_curve(
            query_by_name("tpch1"), tables,
            epsilons=(1.0,), trials=4, sample_size=100,
        )
        point = study.points[0]
        assert point.mean_relative_error == pytest.approx(
            point.mean_absolute_error / study.truth
        )

    def test_noise_with_sensitivity_scales(self):
        small = noise_with_sensitivity(100.0, 1.0, epsilon=1.0, trials=300)
        large = noise_with_sensitivity(100.0, 1000.0, epsilon=1.0, trials=300)
        assert large > 100 * small

    def test_flex_sensitivity_would_destroy_utility(self, tables):
        """The paper's utility argument, end-to-end: noise from FLEX's
        overestimated Q16 sensitivity swamps the true answer."""
        from repro.baselines import flex_local_sensitivity
        from repro.sql import SQLSession
        from repro.tpch.datagen import register_tables

        query = query_by_name("tpch16")
        truth = query.output(tables)[0]
        sql = SQLSession()
        register_tables(sql, tables)
        flex_sens = flex_local_sensitivity(
            sql.sql(query.sql_text()).plan, tables
        ).sensitivity
        flex_error = noise_with_sensitivity(
            truth, flex_sens, epsilon=0.1, trials=200
        )
        upa_error = noise_with_sensitivity(
            truth, 4.0, epsilon=0.1, trials=200
        )
        assert flex_error > 5 * upa_error
