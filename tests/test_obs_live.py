"""Tests for the live-monitoring stack: exporter, server, alerts.

Complements ``tests/test_obs.py`` (post-hoc tracing/metrics/ledger):
here we cover the Prometheus exporter against a strict line-grammar
checker, the introspection HTTP server round-tripped through
``http.client`` on an ephemeral port, alert rules on synthetic
ledgers, and ledger crash-safety.
"""

import argparse
import http.client
import json
import os
import re
import textwrap
import threading
import time

import pytest

from repro.dp.budget import PrivacyAccountant
from repro.engine.context import EngineContext
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.alerts import (
    AlertEngine,
    BudgetBurnRule,
    ClampFractionRule,
    GaugeThresholdRule,
    SensitivityDriftRule,
    default_rules,
)
from repro.obs.exporters import render_prometheus, sanitize_metric_name
from repro.obs.ledger import PrivacyLedger, make_entry
from repro.obs.server import ObservabilityServer
from repro.obs.tracing import Tracer


# ---------------------------------------------------------------------------
# Prometheus line-grammar checker
# ---------------------------------------------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
_LABELS = r"\{" + _LABEL + r"(?:," + _LABEL + r")*\}"
_VALUE = r"(?:[+-]Inf|NaN|-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
_SAMPLE_RE = re.compile(rf"^({_NAME})(?:{_LABELS})? {_VALUE}$")
_HELP_RE = re.compile(rf"^# HELP ({_NAME}) \S.*$")
_TYPE_RE = re.compile(
    rf"^# TYPE ({_NAME}) (counter|gauge|summary|histogram|untyped)$"
)


def assert_valid_exposition(text: str) -> dict:
    """Strict structural check of a text-exposition v0.0.4 document.

    Returns ``{metric name: type}`` for the declared families.  Checks:
    trailing newline, every line parses as HELP/TYPE/sample, HELP
    directly precedes TYPE, each family is declared exactly once,
    every sample belongs to a declared family (modulo the summary
    ``_sum``/``_count`` suffixes), and counters end in ``_total``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    typed = {}
    pending_help = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            m = _HELP_RE.match(line)
            assert m, f"malformed HELP line: {line!r}"
            pending_help = m.group(1)
            continue
        if line.startswith("# TYPE "):
            m = _TYPE_RE.match(line)
            assert m, f"malformed TYPE line: {line!r}"
            name, mtype = m.group(1), m.group(2)
            assert name not in typed, f"duplicate TYPE for {name}"
            assert pending_help == name, f"TYPE {name} not preceded by HELP"
            typed[name] = mtype
            pending_help = None
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        m = _SAMPLE_RE.match(line)
        assert m, f"malformed sample line: {line!r}"
        sample = m.group(1)
        family = None
        for cand in (sample, sample[: -len("_sum")] if
                     sample.endswith("_sum") else sample,
                     sample[: -len("_count")] if
                     sample.endswith("_count") else sample):
            if cand in typed:
                family = cand
                break
        assert family is not None, f"sample {sample} has no TYPE declaration"
        if typed[family] == "counter":
            assert family.endswith("_total"), \
                f"counter {family} missing _total suffix"
    return typed


def _http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


def _entry(seq, query="q", eps=0.1, sens=1.0, clamped=False,
           cache_hit=False, remaining=None, refused=False):
    return make_entry(
        sequence=seq, query=query, epsilon_charged=eps, delta=0.0,
        mechanism="laplace", sample_size=10, mean=[0.0], std=[1.0],
        lower=[0.0], upper=[1.0], local_sensitivity=sens,
        estimated_local_sensitivity=sens, clamped=clamped,
        matched_prior=False, records_removed=0,
        accountant_remaining_epsilon=remaining, cache_hit=cache_hit,
        refused=refused,
    )


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestSanitize:
    def test_dots_become_underscores_with_namespace(self):
        assert sanitize_metric_name("sql.plan_cache.hits", "upa") == \
            "upa_sql_plan_cache_hits"

    def test_leading_digit_prefixed(self):
        name = sanitize_metric_name("5xx.count")
        assert re.match(r"^[a-zA-Z_:]", name)

    def test_empty_name_still_valid(self):
        assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$",
                        sanitize_metric_name(""))


class TestPrometheusExposition:
    def test_golden_document(self):
        snap = MetricsSnapshot(
            counters={"jobs_run": 3.0},
            histograms={"task_seconds": (0.5, 1.5)},
            gauges={"pool.size": 4.0},
        )
        expected = textwrap.dedent("""\
            # HELP upa_jobs_run_total Engine counter jobs_run.
            # TYPE upa_jobs_run_total counter
            upa_jobs_run_total 3
            # HELP upa_pool_size Engine gauge pool.size.
            # TYPE upa_pool_size gauge
            upa_pool_size 4
            # HELP upa_task_seconds Engine histogram task_seconds.
            # TYPE upa_task_seconds summary
            upa_task_seconds{quantile="0.5"} 1
            upa_task_seconds{quantile="0.9"} 1.4
            upa_task_seconds{quantile="0.95"} 1.45
            upa_task_seconds{quantile="0.99"} 1.49
            upa_task_seconds_sum 2
            upa_task_seconds_count 2
            # HELP upa_task_seconds_stddev Population standard deviation of histogram task_seconds.
            # TYPE upa_task_seconds_stddev gauge
            upa_task_seconds_stddev 0.5
        """)
        assert render_prometheus(snap) == expected

    def test_grammar_checker_accepts_rendered_output(self):
        snap = MetricsSnapshot(
            counters={"jobs_run": 3.0, "sql.plan_cache.hits": 1.0},
            histograms={"task_seconds": (0.5, 1.5, 2.5)},
            gauges={"pool.size": 4.0},
        )
        typed = assert_valid_exposition(render_prometheus(snap))
        assert typed["upa_jobs_run_total"] == "counter"
        assert typed["upa_task_seconds"] == "summary"
        assert typed["upa_pool_size"] == "gauge"

    def test_grammar_checker_rejects_malformed(self):
        with pytest.raises(AssertionError):
            assert_valid_exposition("no newline terminator")
        with pytest.raises(AssertionError):
            assert_valid_exposition("bad-name 1\n")
        with pytest.raises(AssertionError):
            assert_valid_exposition("orphan_sample 1\n")

    def test_live_registry_snapshot_renders_clean(self):
        registry = MetricsRegistry()
        registry.incr("jobs_run", 2)
        registry.observe("task_seconds", 0.25)
        registry.set_gauge("scheduler.pool_size", 8)
        assert_valid_exposition(render_prometheus(registry.snapshot()))

    @pytest.mark.parametrize("value, text", [
        (float("nan"), "NaN"),
        (float("inf"), "+Inf"),
        (float("-inf"), "-Inf"),
        (3.0, "3"),
        (0.25, "0.25"),
    ])
    def test_sample_values_follow_the_grammar(self, value, text):
        body = render_prometheus(MetricsSnapshot(gauges={"g": value}))
        assert body.splitlines()[-1] == f"upa_g {text}"
        assert_valid_exposition(body)

    def test_accountant_label_is_escaped(self):
        """Accountant names are the caller's; the budget gauges must
        stay grammatical whatever they contain."""
        server = ObservabilityServer(
            metrics=MetricsRegistry(),
            accountants={'team "a"\\\n': PrivacyAccountant(total_epsilon=1.0)},
        )
        status, _, body = server.handle("/metrics", {})
        assert status == 200
        text = body.decode("utf-8")
        assert_valid_exposition(text)
        assert 'accountant="team \\"a\\"\\\\\\n"' in text


# ---------------------------------------------------------------------------
# Alert rules on synthetic ledgers
# ---------------------------------------------------------------------------


class TestAlertRules:
    def test_sensitivity_drift_fires_and_degrades(self):
        ledger = PrivacyLedger()
        engine = AlertEngine(rules=[SensitivityDriftRule()])
        engine.attach(ledger)
        for i in range(6):
            ledger.append(_entry(i, sens=1.0))
        assert engine.alerts() == []
        ledger.append(_entry(6, sens=5.0))
        fired = engine.alerts()
        assert len(fired) == 1
        assert fired[0].rule == "sensitivity-drift"
        assert "sensitivity drift" in fired[0].message
        assert engine.degraded is True
        assert engine.firing_rules() == ["sensitivity-drift"]
        header_alerts = ledger.header.get("alerts")
        assert header_alerts and \
            header_alerts[0]["rule"] == "sensitivity-drift"

    def test_drift_silent_below_min_history(self):
        ledger = PrivacyLedger()
        engine = AlertEngine(rules=[SensitivityDriftRule()])
        engine.attach(ledger)
        for i in range(4):
            ledger.append(_entry(i, sens=1.0))
        ledger.append(_entry(4, sens=100.0))
        assert engine.alerts() == []

    def test_drift_nonzero_stddev_uses_z_score(self):
        rule = SensitivityDriftRule(min_history=4)
        history = [_entry(i, sens=s) for i, s in
                   enumerate([1.0, 1.2, 0.8, 1.0])]
        probe = _entry(4, sens=1.1)
        history_plus = history + [probe]
        assert rule.on_entry(probe, history_plus, None) is None
        spike = _entry(5, sens=10.0)
        alert = rule.on_entry(spike, history + [spike], None)
        assert alert is not None
        assert alert.context["z_score"] > 3.0

    def test_budget_burn_from_recorded_balance(self):
        rule = BudgetBurnRule()
        history = [_entry(i, eps=0.1, remaining=1.0) for i in range(3)]
        tail = _entry(3, eps=0.1, remaining=0.05)
        alert = rule.on_entry(tail, history + [tail], None)
        assert alert is not None and alert.severity == "critical"
        assert alert.context["forecast_releases_remaining"] < 1.0

    def test_budget_burn_live_accountant_warning(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        accountant.charge(0.6, label="q")
        rule = BudgetBurnRule()
        history = [_entry(i, eps=0.2) for i in range(3)]
        alert = rule.on_entry(history[-1], history, accountant)
        assert alert is not None and alert.severity == "warning"
        assert alert.context["remaining_epsilon"] == pytest.approx(0.4)

    def test_budget_burn_silent_without_balance(self):
        rule = BudgetBurnRule()
        history = [_entry(i, eps=0.2) for i in range(3)]
        assert rule.on_entry(history[-1], history, None) is None

    def test_clamp_rate_fires_above_threshold(self):
        ledger = PrivacyLedger()
        engine = AlertEngine(rules=[ClampFractionRule()])
        engine.attach(ledger)
        for i in range(4):
            ledger.append(_entry(i, clamped=True))
        assert engine.alerts() == []  # below min_entries
        ledger.append(_entry(4, clamped=False))
        fired = engine.alerts()
        assert fired and fired[0].rule == "clamp-rate"
        assert fired[0].context["clamp_rate"] == pytest.approx(0.8)

    def test_cache_hits_do_not_count(self):
        rule = ClampFractionRule()
        history = [_entry(i, clamped=True, cache_hit=True)
                   for i in range(10)]
        assert rule.on_entry(history[-1], history, None) is None

    def test_refused_submissions_do_not_count(self):
        """A refused row spent nothing and released nothing: the rules
        treat it as they treat a cache hit."""
        history = [_entry(i, eps=0.3, remaining=0.1) for i in range(5)]
        refused = _entry(5, eps=0.0, sens=1e6, remaining=0.1, refused=True)
        history.append(refused)
        for rule in (BudgetBurnRule(), SensitivityDriftRule()):
            assert rule.on_entry(refused, history, None) is None
        clamps = [_entry(i, clamped=True, refused=True) for i in range(10)]
        assert ClampFractionRule().on_entry(clamps[-1], clamps, None) is None
        ledger = PrivacyLedger()
        ledger.append(refused)
        assert ledger.totals()["refused"] == 1
        assert refused.to_dict()["refused"] is True

    def test_gauge_threshold_dedupes_on_metrics_tick(self):
        engine = AlertEngine(rules=[
            GaugeThresholdRule(metric="queue_depth", max_value=10.0)
        ])
        snap = MetricsSnapshot(gauges={"queue_depth": 50.0})
        first = engine.observe_metrics(snap)
        assert len(first) == 1
        again = engine.observe_metrics(snap)
        assert again == []  # identical firing deduplicated
        assert len(engine.alerts()) == 1

    def test_gauge_threshold_silent_at_threshold_or_without_gauge(self):
        rule = GaugeThresholdRule(metric="queue_depth", max_value=10.0)
        assert rule.on_metrics(
            MetricsSnapshot(gauges={"queue_depth": 10.0})) is None
        assert rule.on_metrics(MetricsSnapshot(gauges={"other": 99.0})) \
            is None

    def test_replay_synthetic_ledger(self):
        ledger = PrivacyLedger()
        for i in range(6):
            ledger.append(_entry(i, sens=1.0))
        ledger.append(_entry(6, sens=9.0))
        engine = AlertEngine(rules=default_rules())
        fired = engine.replay(ledger)
        assert any(a.rule == "sensitivity-drift" for a in fired)
        assert engine.degraded

    def test_summary_lists_firings(self):
        engine = AlertEngine(rules=[SensitivityDriftRule()])
        ledger = PrivacyLedger()
        engine.attach(ledger)
        for i in range(6):
            ledger.append(_entry(i, sens=1.0))
        ledger.append(_entry(6, sens=5.0))
        summary = engine.summary()
        assert "sensitivity-drift" in summary

    def test_listener_exception_warns_not_raises(self):
        ledger = PrivacyLedger()

        def bad_listener(entry):
            raise ValueError("boom")

        ledger.add_listener(bad_listener)
        with pytest.warns(RuntimeWarning):
            ledger.append(_entry(0))
        assert len(ledger) == 1


# ---------------------------------------------------------------------------
# Ledger crash-safety + append_jsonl
# ---------------------------------------------------------------------------


class TestLedgerCrashSafety:
    def _write_ledger(self, path, n=3):
        ledger = PrivacyLedger()
        for i in range(n):
            ledger.append(_entry(i))
        ledger.write_jsonl(str(path))
        return ledger

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 40])  # chop mid-JSON
        with pytest.warns(RuntimeWarning):
            recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 2
        assert [e.sequence for e in recovered.entries()] == [0, 1]

    def test_blank_lines_skipped_silently(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        lines.append("   ")
        path.write_text("\n".join(lines) + "\n")
        recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 3

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        lines = path.read_text().splitlines()
        lines[2] = '{"sequence": 1, "query": '  # corrupt entry 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning):
            recovered = PrivacyLedger.read_jsonl(str(path))
        assert [e.sequence for e in recovered.entries()] == [0, 2]

    def test_append_jsonl_incremental_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = PrivacyLedger()
        for i in range(3):
            entry = _entry(i)
            ledger.append(entry)
            ledger.append_jsonl(str(path), entry)
        recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 3
        assert recovered.header.get("format") or True  # header present
        # header must be written exactly once
        headers = [ln for ln in path.read_text().splitlines()
                   if '"entries"' not in ln and '"sequence"' not in ln]
        assert len(headers) == 1


# ---------------------------------------------------------------------------
# Introspection server round-trip over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture()
def full_server():
    registry = MetricsRegistry()
    registry.incr("jobs_run", 2)
    registry.observe("task_seconds", 0.5)
    tracer = Tracer()
    with tracer.span("upa.run"):
        with tracer.span("phase:map"):
            pass
    ledger = PrivacyLedger()
    engine = AlertEngine(rules=default_rules())
    engine.attach(ledger)
    for i in range(6):
        ledger.append(_entry(i, sens=1.0))
    accountant = PrivacyAccountant(total_epsilon=10.0)
    accountant.charge(1.0, label="q")
    server = ObservabilityServer(
        metrics=registry, tracer=tracer, ledger=ledger,
        accountants=accountant, alerts=engine,
    ).start()
    yield server, registry, ledger, engine
    server.stop()


class TestObservabilityServer:
    def test_ephemeral_port_and_url(self, full_server):
        server, _, _, _ = full_server
        assert server.running
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_metrics_endpoint_valid_exposition(self, full_server):
        server, _, _, _ = full_server
        status, ctype, body = _http_get(server.port, "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        typed = assert_valid_exposition(body.decode("utf-8"))
        assert typed["upa_jobs_run_total"] == "counter"
        assert "upa_budget_remaining_epsilon" in typed
        assert "upa_server_requests_total" in typed
        assert "upa_health_degraded" in typed

    def test_healthz_ok_then_degraded(self, full_server):
        server, _, ledger, engine = full_server
        status, _, body = _http_get(server.port, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        ledger.append(_entry(6, sens=50.0))  # trigger drift
        assert engine.degraded
        status, _, body = _http_get(server.port, "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert "sensitivity-drift" in payload["firing_rules"]

    def test_ledger_tail_and_since(self, full_server):
        server, _, _, _ = full_server
        status, ctype, body = _http_get(server.port, "/ledger?n=2")
        assert status == 200
        assert ctype.startswith("application/x-ndjson")
        lines = [json.loads(ln) for ln in body.decode().splitlines()]
        assert lines[0]["format"] == PrivacyLedger.FORMAT  # header first
        assert [ln["sequence"] for ln in lines[1:]] == [4, 5]
        status, _, body = _http_get(server.port, "/ledger?since=3")
        lines = [json.loads(ln) for ln in body.decode().splitlines()]
        assert [ln["sequence"] for ln in lines[1:]] == [4, 5]

    def test_traces_chrome(self, full_server):
        server, _, _, _ = full_server
        status, _, body = _http_get(server.port, "/traces")
        assert status == 200
        events = json.loads(body)["traceEvents"]
        assert any(e.get("name") == "phase:map" for e in events)

    def test_budget_endpoint(self, full_server):
        server, _, _, _ = full_server
        status, _, body = _http_get(server.port, "/budget")
        assert status == 200
        accountants = json.loads(body)["accountants"]
        assert accountants["default"]["total_epsilon"] == 10.0
        assert accountants["default"]["spent_epsilon"] == pytest.approx(1.0)

    def test_index_and_404(self, full_server):
        server, _, _, _ = full_server
        status, _, body = _http_get(server.port, "/")
        assert status == 200
        assert json.loads(body)["endpoints"] == dict.fromkeys(
            ("/metrics", "/healthz", "/ledger", "/traces", "/budget"), True
        )
        status, _, _ = _http_get(server.port, "/nope")
        assert status == 404

    @pytest.mark.parametrize("query", ["n=banana", "since=1.5"])
    def test_malformed_ledger_param_is_400(self, full_server, query):
        server, _, _, _ = full_server
        status, ctype, body = _http_get(server.port, f"/ledger?{query}")
        assert status == 400
        assert ctype.startswith("application/json")
        assert query.split("=")[0] in json.loads(body)["error"]

    def test_ledger_tail_of_zero_is_the_header_alone(self, full_server):
        server, _, _, _ = full_server
        status, _, body = _http_get(server.port, "/ledger?n=0")
        assert status == 200
        lines = body.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["format"] == PrivacyLedger.FORMAT

    @pytest.mark.parametrize("path", ["/metrics", "/healthz"])
    def test_scrape_evaluates_metrics_tick_rules(self, path):
        registry = MetricsRegistry()
        registry.set_gauge("queue_depth", 50.0)
        engine = AlertEngine(rules=[
            GaugeThresholdRule(metric="queue_depth", max_value=10.0)
        ])
        server = ObservabilityServer(metrics=registry, alerts=engine)
        assert not engine.degraded
        server.handle(path, {})
        server.handle(path, {})  # a persisting condition fires once
        assert engine.firing_rules() == ["gauge-threshold"]
        assert len(engine.alerts()) == 1
        assert server.handle("/healthz", {})[0] == 503

    def test_unwired_sources_404(self):
        server = ObservabilityServer(metrics=MetricsRegistry()).start()
        try:
            for path in ("/ledger", "/traces", "/budget"):
                status, _, _ = _http_get(server.port, path)
                assert status == 404, path
        finally:
            server.stop()

    def test_handler_error_returns_500(self):
        class Broken:
            def snapshot(self):
                raise RuntimeError("boom")

        server = ObservabilityServer(metrics=Broken()).start()
        try:
            status, _, _ = _http_get(server.port, "/metrics")
            assert status == 500
        finally:
            server.stop()

    def test_stop_is_idempotent_and_context_manager(self):
        with ObservabilityServer(metrics=MetricsRegistry()) as server:
            assert server.running
            port = server.port
        assert not server.running
        server.stop()  # second stop is a no-op
        with pytest.raises(OSError):
            _http_get(port, "/metrics")


# ---------------------------------------------------------------------------
# Thread-safety: jobs update the registry while scrape threads read it
# ---------------------------------------------------------------------------


class TestScrapeThreadSafety:
    def test_metrics_scrape_during_jobs(self):
        ctx = EngineContext()
        server = ctx.serve(port=0)
        errors = []
        bodies = []
        # bodies of scrapes that began after the last job finished;
        # the order in which threads append is not the order in which
        # the server answered, so only these must show the jobs.
        after_jobs = []
        jobs_done = threading.Event()
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                began_after_jobs = jobs_done.is_set()
                try:
                    status, _, body = _http_get(server.port, "/metrics")
                    if status != 200:
                        errors.append(f"status {status}")
                    else:
                        bodies.append(body.decode("utf-8"))
                        if began_after_jobs:
                            after_jobs.append(bodies[-1])
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        for t in scrapers:
            t.start()
        try:
            for _ in range(8):
                out = ctx.parallelize(range(200), 8).map(
                    lambda v: v * 2
                ).collect()
                assert len(out) == 200
            jobs_done.set()
            deadline = time.monotonic() + 10
            while not after_jobs and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            stop.set()
            for t in scrapers:
                t.join(timeout=10)
        ctx.stop()
        assert not errors, (
            f"{len(errors)} of {len(errors) + len(bodies)} scrapes "
            f"failed; first: {errors[:5]}"
        )
        assert bodies
        # every concurrent scrape must still be grammatical
        for body in bodies[-3:]:
            assert_valid_exposition(body)
        assert after_jobs, "no scrape began after the jobs finished"
        assert_valid_exposition(after_jobs[-1])
        assert "upa_jobs_run_total 8" in after_jobs[-1]


# ---------------------------------------------------------------------------
# Embedding: EngineContext.serve / UPASession.serve
# ---------------------------------------------------------------------------


class TestEmbedding:
    def test_engine_context_serve_idempotent_and_stops(self):
        ctx = EngineContext()
        server = ctx.serve(port=0)
        assert ctx.serve(port=0) is server
        status, _, _ = _http_get(server.port, "/metrics")
        assert status == 200
        ctx.stop()
        assert not server.running
        assert ctx.obs_server is None

    def test_session_serve_wires_everything(self):
        from repro.core.session import UPAConfig, UPASession
        from repro.workloads import workload_by_name

        workload = workload_by_name("tpch1")
        tables = workload.make_tables(200, 0)
        session = UPASession(
            UPAConfig(epsilon=1.0, sample_size=30, seed=3),
            accountant=PrivacyAccountant(total_epsilon=100.0),
            tracer=Tracer(),
            ledger=PrivacyLedger(),
        )
        server = session.serve(port=0)
        assert session.serve(port=0) is server  # idempotent
        assert session.alert_engine is not None
        try:
            session.run(workload.query, tables)
            status, _, body = _http_get(server.port, "/metrics")
            assert status == 200
            assert_valid_exposition(body.decode("utf-8"))
            status, _, body = _http_get(server.port, "/ledger?n=5")
            assert status == 200
            lines = body.decode().splitlines()
            assert len(lines) >= 2  # header + the run's entry
            assert json.loads(lines[-1])["query"] == "tpch1"
            status, _, body = _http_get(server.port, "/budget")
            assert status == 200
            assert "session" in json.loads(body)["accountants"]
            status, _, _ = _http_get(server.port, "/healthz")
            assert status == 200
        finally:
            session.engine.stop()
        assert not server.running

    def test_attach_alerts_idempotent(self):
        from repro.core.session import UPAConfig, UPASession

        session = UPASession(UPAConfig(sample_size=10, seed=0),
                             ledger=PrivacyLedger())
        engine = session.attach_alerts()
        assert session.attach_alerts() is engine


# ---------------------------------------------------------------------------
# The CLI's live surfaces: --serve on a command, and `repro serve`
# ---------------------------------------------------------------------------

#: the commands that take --serve, at a scale that runs in a second.
_LIVE_COMMANDS = {
    "run": ["run", "tpch1", "--scale", "300", "--sample-size", "50"],
    "run-sql": ["run-sql", "SELECT COUNT(*) AS n FROM lineitem",
                "--protect", "lineitem", "--scale", "300"],
    "compare": ["compare", "tpch1", "--scale", "300"],
}


class TestServeCLI:
    @pytest.mark.parametrize("command", sorted(_LIVE_COMMANDS))
    def test_serve_flag_answers_before_the_command_exits(
        self, command, monkeypatch, capsys
    ):
        from repro import cli

        scraped = {}
        finish = cli._finish_live

        def scrape_then_finish(args, session, server):
            for path in ("/metrics", "/healthz", "/ledger?n=5", "/traces"):
                scraped[path] = _http_get(server.port, path)
            finish(args, session, server)

        monkeypatch.setattr(cli, "_finish_live", scrape_then_finish)
        assert cli.main(_LIVE_COMMANDS[command] + ["--serve", "0"]) == 0
        assert "live monitoring on http://127.0.0.1:" in \
            capsys.readouterr().out
        status, _, body = scraped["/metrics"]
        assert status == 200
        assert "upa_release_count_total" in \
            assert_valid_exposition(body.decode("utf-8"))
        assert scraped["/healthz"][0] == 200
        assert scraped["/traces"][0] == 200
        status, _, body = scraped["/ledger?n=5"]
        if command == "compare":  # compare keeps no ledger
            assert status == 404
        else:
            assert status == 200
            assert len(body.decode().splitlines()) == 2  # header + release

    def test_serve_command_replays_the_ledger(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        ledger = PrivacyLedger()
        for i in range(6):
            ledger.append(_entry(i, sens=1.0))
        ledger.append(_entry(6, sens=9.0))
        ledger_path = tmp_path / "l.jsonl"
        ledger.write_jsonl(str(ledger_path))
        tracer = Tracer()
        with tracer.span("phase:map"):
            pass
        trace_path = tmp_path / "t.json"
        tracer.write_chrome_trace(str(trace_path))

        scraped = {}
        stop = ObservabilityServer.stop

        def scrape_then_stop(server):
            if server.running:
                for path in ("/healthz", "/ledger", "/traces", "/metrics"):
                    scraped[path] = _http_get(server.port, path)
            stop(server)

        monkeypatch.setattr(ObservabilityServer, "stop", scrape_then_stop)
        assert cli.main([
            "serve", "--ledger", str(ledger_path),
            "--trace", str(trace_path), "--duration", "0",
        ]) == 0
        assert "sensitivity-drift" in capsys.readouterr().out
        status, _, body = scraped["/healthz"]
        assert status == 503
        assert json.loads(body)["firing_rules"] == ["sensitivity-drift"]
        assert len(scraped["/ledger"][2].decode().splitlines()) == 8
        events = json.loads(scraped["/traces"][2])["traceEvents"]
        assert [e["name"] for e in events] == ["phase:map"]
        assert scraped["/metrics"][0] == 404  # no live registry

    def test_serve_command_requires_an_artifact(self, capsys):
        from repro import cli

        assert cli.main(["serve"]) == 2
        assert "pass --ledger and/or --trace" in capsys.readouterr().err

    def test_serve_command_missing_file(self, tmp_path, capsys):
        from repro import cli

        assert cli.main(["serve", "--ledger",
                         str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Every surface names a consumer (docs/observability.md)
# ---------------------------------------------------------------------------

_DOC = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "observability.md"
)


def _documented_consumers():
    """surface -> consumer, from the doc's "What each surface is for"."""
    with open(_DOC, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## What each surface is for", 1)[1]
    consumers = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            surface, consumer = (
                cell.strip() for cell in line.strip().strip("|").split("|", 1)
            )
            for name in re.findall(r"`([^`]+)`", surface):
                consumers[name] = consumer
    return consumers


def _surfaces():
    """Every endpoint the server routes and every observability flag."""
    from repro import cli

    endpoints = json.loads(ObservabilityServer().handle("/", {})[2])
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_observability_args(parser)
    flags = [action.option_strings[0] for action in parser._actions]
    return sorted(endpoints["endpoints"]) + flags + [
        "repro report", "repro serve",
    ]


@pytest.mark.parametrize("surface", _surfaces())
def test_every_surface_names_a_consumer(surface):
    assert _documented_consumers().get(surface), (
        f"docs/observability.md names no consumer for {surface}"
    )
