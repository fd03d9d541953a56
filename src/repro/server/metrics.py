"""Live server metrics in Prometheus text exposition format.

Every :class:`~repro.toolchain.results.CompilationResult` already
carries a :class:`~repro.toolchain.results.CompileMetrics` block and
per-pass wall-clock timings; the compile server only has to *aggregate*
them.  :class:`ServerMetrics` is that aggregator: it owns one
:class:`~repro.obs.metrics.MetricsRegistry`, :meth:`record_compile`
feeds it from each response envelope, and :meth:`render` (``GET
/metrics``) is the registry's exposition -- the only one.

Exported families (all prefixed ``repro_``):

* ``repro_compile_requests_total{target=,status=}``,
  ``repro_compiles_per_second`` (trailing window, default 60s) and
  ``repro_uptime_seconds``;
* ``repro_compile_<field>_total{target=}`` -- one counter per non-ratio
  ``CompileMetrics`` field, summed per target, with the field's help
  text (a ``*_s`` field becomes ``repro_compile_<stem>_seconds_total``);
  ``repro_label_memo_hit_rate`` is the node-weighted ratio field (the
  share of labelled nodes whose automaton transition was cached);
* ``repro_http_requests_total{endpoint=,code=}`` and
  ``repro_http_rejected_total`` (429s);
* ``repro_request_seconds`` and ``repro_phase_seconds{phase=}``
  histograms, and ``repro_target_phase_seconds_total{target=,phase=}``,
  all from ``CompilationResult.pass_timings``;
* :data:`BACKEND_GAUGES`, set at scrape time from
  :meth:`CompileBackend.stats`, and
  ``repro_worker_requests_total{worker=,status=}`` per live worker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.toolchain.results import METRIC_FIELDS

#: ``backend.stats()`` keys set on gauges at scrape time: (key, family,
#: help).  ``pool_hit_rate`` is derived from ``pool_hits``/``pool_misses``.
BACKEND_GAUGES = (
    ("pool_hits", "repro_session_pool_hits_total",
     "Session-pool lookups served from a pooled session."),
    ("pool_misses", "repro_session_pool_misses_total",
     "Session-pool lookups that built a new session."),
    ("pool_hit_rate", "repro_session_pool_hit_rate", "Session-pool hit fraction."),
    ("pool_retargets", "repro_retarget_cache_misses_total",
     "Retargeting runs actually paid (retarget-cache misses)."),
    ("pool_sessions", "repro_sessions", "Live pooled sessions across workers."),
    ("workers", "repro_workers", "Live backend workers."),
    ("crashes", "repro_worker_crashes_total", "Worker processes that died mid-request."),
    ("respawns", "repro_worker_respawns_total",
     "Worker processes respawned after a crash or timeout."),
    ("timeouts", "repro_request_timeouts_total",
     "Requests killed by their per-request timeout."),
    ("backoff_waits", "repro_worker_backoff_waits_total",
     "Respawns delayed by the crash-storm backoff."),
    ("consecutive_crashes", "repro_worker_consecutive_crashes",
     "Current worker crash streak (resets on a successful result)."),
)


def compile_family_name(field_name: str) -> str:
    """The counter family summing one ``CompileMetrics`` field."""
    if field_name.endswith("_s"):
        field_name = field_name[:-2] + "_seconds"
    return "repro_compile_%s_total" % field_name


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ServerMetrics:
    """Thread-safe aggregation of server traffic (see module docstring).

    ``backend_stats`` is an optional zero-argument callable (typically
    ``backend.stats``) sampled at render time, so cache hit rates and
    worker counts are always current without the hot path touching
    them.  ``clock`` is injectable for rate-window tests.
    """

    def __init__(
        self,
        backend_stats: Optional[Callable[[], dict]] = None,
        rate_window_s: float = 60.0,
        clock: Callable[[], float] = time.time,
    ):
        self._lock = threading.Lock()
        self._scrape_lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self._backend_stats = backend_stats
        self._rate_window_s = rate_window_s
        self._recent_completions: deque = deque()
        self._label_nodes = 0
        self._label_memo_hits = 0.0
        self.registry = registry = MetricsRegistry()
        self._compile_requests = registry.counter(
            "repro_compile_requests_total",
            "Compile requests by target and status.",
            labels=("target", "status"),
        )
        self._http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint and status code.",
            labels=("endpoint", "code"),
        )
        self._http_rejected = registry.counter(
            "repro_http_rejected_total",
            "Requests rejected with 429 (backpressure).",
        )
        self._http_rejected.inc(0)  # always present, even before traffic
        self._request_seconds = registry.histogram(
            "repro_request_seconds",
            "Wall-clock service time per compile request.",
        )
        self._request_seconds.labels()  # render zero buckets before traffic
        self._phase_seconds = registry.histogram(
            "repro_phase_seconds",
            "Per-pass compile latency "
            "(aggregated from CompilationResult.pass_timings).",
            labels=("phase",),
        )
        self._target_phase_seconds = registry.counter(
            "repro_target_phase_seconds_total",
            "Cumulative per-pass compile seconds by target.",
            labels=("target", "phase"),
        )
        self._compile_families = [
            (f.name, registry.counter(
                compile_family_name(f.name), f.metadata["help"], labels=("target",)
            ))
            for f in METRIC_FIELDS
            if f.metadata["unit"] != "ratio"
        ]
        # target -> [(field, counter child)], resolved once per target.
        self._compile_counters: Dict[str, List[Tuple[str, object]]] = {}
        self._backend_gauges = [
            (key, registry.gauge(name, help_text)) for key, name, help_text in BACKEND_GAUGES
        ]
        self._worker_requests = registry.gauge(
            "repro_worker_requests_total",
            "Requests served per live worker.",
            labels=("worker", "status"),
        )
        registry.gauge_callback(
            "repro_uptime_seconds", "Seconds since server start.",
            lambda: self._clock() - self._started,
        )
        registry.gauge_callback(
            "repro_compiles_per_second", "Completion rate over the trailing window.",
            self.compiles_per_second,
        )
        registry.gauge_callback(
            "repro_label_memo_hit_rate",
            "Node-weighted hit rate of the selector's transition cache.",
            self._label_memo_hit_rate,
        )

    # -- recording ---------------------------------------------------------------

    def record_http(self, endpoint: str, code: int) -> None:
        self._http_requests.labels(endpoint=endpoint, code=str(code)).inc()
        if code == 429:
            self._http_rejected.inc()

    def record_compile(self, response: dict) -> None:
        """Fold one response envelope (a ``CompileResponse.to_dict``)
        into the counters and histograms."""
        target = str(response.get("target", "") or "")
        ok = bool(response.get("ok"))
        elapsed = response.get("elapsed_s")
        result = response.get("result") or {}
        pass_timings = result.get("pass_timings") or {}
        metrics = result.get("metrics") or {}
        now = self._clock()
        self._compile_requests.labels(
            target=target, status="ok" if ok else "error"
        ).inc()
        with self._lock:
            self._recent_completions.append(now)
            self._trim_recent(now)
        if isinstance(elapsed, (int, float)):
            self._request_seconds.labels().observe(float(elapsed))
        for phase, seconds in pass_timings.items():
            if not isinstance(seconds, (int, float)):
                continue
            self._phase_seconds.labels(phase=phase).observe(float(seconds))
            self._target_phase_seconds.labels(target=target, phase=phase).inc(
                float(seconds)
            )
        if not metrics:
            return
        for name, counter in self._counters_for(target):
            value = metrics.get(name)
            if value is not None:
                counter.inc(value)
        nodes = metrics.get("nodes_labelled") or 0
        with self._lock:
            self._label_nodes += nodes
            self._label_memo_hits += nodes * (metrics.get("label_memo_hit_rate") or 0.0)

    def _counters_for(self, target: str) -> List[Tuple[str, object]]:
        counters = self._compile_counters.get(target)
        if counters is None:
            counters = [
                (name, family.labels(target=target))
                for name, family in self._compile_families
            ]
            self._compile_counters[target] = counters
        return counters

    def _trim_recent(self, now: float) -> None:
        horizon = now - self._rate_window_s
        while self._recent_completions and self._recent_completions[0] < horizon:
            self._recent_completions.popleft()

    # -- rendering ---------------------------------------------------------------

    def compiles_per_second(self) -> float:
        """Completion rate over the trailing window.

        Decays to exactly ``0.0`` once no completion falls inside the
        window anymore -- a scrape after traffic stops must read an
        idle server, not the last window's stale rate.
        """
        now = self._clock()
        with self._lock:
            self._trim_recent(now)
            if not self._recent_completions:
                return 0.0
            window = min(self._rate_window_s, max(now - self._started, 1e-9))
            return len(self._recent_completions) / window if window else 0.0

    def _label_memo_hit_rate(self) -> float:
        with self._lock:
            return self._label_memo_hits / self._label_nodes if self._label_nodes else 0.0

    def _status_totals(self) -> dict:
        totals = {"ok": 0, "error": 0}
        for label_dict, child in self._compile_requests.collect():
            status = label_dict.get("status")
            if status in totals:
                totals[status] += int(child.value)
        return totals

    def snapshot(self) -> dict:
        """A plain-dict summary (the JSON sibling of :meth:`render`)."""
        totals = self._status_totals()
        return {
            "uptime_s": self._clock() - self._started,
            "completed": totals["ok"],
            "failed": totals["error"],
            "rejected": int(self._http_rejected.labels().value),
            "compiles_per_second": self.compiles_per_second(),
        }

    def render(self) -> str:
        """The full Prometheus text exposition."""
        with self._scrape_lock:
            self._sample_backend()
            return self.registry.render()

    def _sample_backend(self) -> None:
        """Set the backend gauges from one ``backend.stats()`` snapshot.

        A key the snapshot lacks (or a failing stats callable) leaves its
        family without a sample, and only live workers get
        ``repro_worker_requests_total`` samples.
        """
        stats = {}
        if self._backend_stats is not None:
            try:
                stats = dict(self._backend_stats())
            except Exception:
                stats = {}
        hits, misses = stats.get("pool_hits"), stats.get("pool_misses")
        if _is_number(hits) and _is_number(misses) and hits + misses:
            stats["pool_hit_rate"] = hits / (hits + misses)
        for key, family in self._backend_gauges:
            family.clear()
            if _is_number(stats.get(key)):
                family.set(stats[key])
        self._worker_requests.clear()
        for entry in stats.get("per_worker") or ():
            worker = str(entry.get("worker", "") or "")
            for status, key in (("ok", "completed"), ("error", "failed")):
                if _is_number(entry.get(key)):
                    self._worker_requests.labels(worker=worker, status=status).set(entry[key])
