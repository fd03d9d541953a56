"""The ``http_mixed`` workload: a closed loop against ``repro serve``.

The server runs in its own process with its defaults (process backend,
one worker per core, every built-in target prewarmed) and a fresh,
empty retarget-cache directory, so every start is cold.  One client,
this process, posts ``/compile`` jobs (full results, the default) and
waits for each reply before it sends the next.  The server and its
workers inherit the benchmark's pinning to one CPU (see ``run.py``), so
a second client would only queue behind the first.

Cold and warm are kept apart: ``setup_s`` runs from starting the server
until every target has answered once and two periods of the job stream
have warmed every worker; only then does the timed window open.  The
round trips and set-ups are scaled to the reference host speed (see
``pace.py``).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from typing import Dict, List, Optional

from inproc import (
    Item,
    check_output,
    count_metrics,
    deterministic_counts,
    memory_storages,
    plain_setup,
    reconcile,
    result_counts,
    traced_setup,
)
from ledger import Ledger
from pace import Pacer, speed_factor
from report import latency_metrics, peak_rss_mb
from repro.dspstone.kernels import get_kernel
from repro.frontend.lowering import lower_to_program

TARGETS = ("demo", "ref", "tms320c25")

#: The mixed-target stream of ``benchmarks/bench_server_throughput.py``
#: (``make_traffic``): DSPStone kernels and raw sources interleaved.
STREAM_KERNELS = ("fir", "dot_product", "complex_multiply", "n_real_updates")
STREAM_SOURCES = (
    "int a, b, c, d; d = c + a * b;",
    "int p, q, r; r = (p + q) * (p - q);",
)
#: The stream repeats with this period; each period is shuffled by seed.
PERIOD = 60

#: Cold server starts per run; ``setup_s`` is their median.
SERVER_STARTS = 3
#: Stream periods sent before the window opens, so that every worker has
#: compiled every job of the stream (a session per target, a warm label
#: memo) and the window starts warm.
WARM_PERIODS = 2
BOOT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0
#: Repeats of each in-process frontend/serialization timing.
ESTIMATE_REPEATS = 5


def traffic_period() -> List[dict]:
    jobs = []
    for index in range(PERIOD):
        target = TARGETS[index % len(TARGETS)]
        if index % 5 == 4:
            jobs.append({
                "target": target,
                "source": STREAM_SOURCES[index % len(STREAM_SOURCES)],
                "name": "src%d" % index,
            })
        else:
            jobs.append({
                "target": target,
                "kernel": STREAM_KERNELS[index % len(STREAM_KERNELS)],
            })
    return jobs


def job_key(job: dict) -> tuple:
    return job["target"], job.get("kernel") or job["source"]


def job_item(job: dict) -> Item:
    """The in-process equivalent of a job."""
    if "kernel" in job:
        kernel = get_kernel(job["kernel"])
        return Item(job["target"], kernel.name, kernel.source)
    return Item(job["target"], job["name"], job["source"])


class JobStream:
    """The seeded job stream."""

    def __init__(self, seed: int, limit: Optional[int] = None):
        self._rng = random.Random(seed)
        self._pending: List[dict] = []
        self.limit = limit
        self.issued = 0

    def next(self) -> Optional[dict]:
        if self.limit is not None and self.issued >= self.limit:
            return None
        if not self._pending:
            self._pending = traffic_period()
            self._rng.shuffle(self._pending)
        job = dict(self._pending.pop())
        job["request_id"] = "r%d" % self.issued
        self.issued += 1
        return job


class Server:
    """One ``python -m repro serve --port 0`` process."""

    def __init__(self, root: str, state_dir: str):
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=state_dir)
        src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env["PYTHONUNBUFFERED"] = "1"
        env["REPRO_VERIFY"] = "0"
        self._stderr = open(os.path.join(state_dir, "server-stderr.log"), "ab")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", self.cache_dir],
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                cwd=root,
                env=env,
                text=True,
            )
        except OSError:
            self._stderr.close()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            raise
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.address = None

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put("")

    def wait_ready(self) -> None:
        """Block until the server prints its URL."""
        line = self._lines.get(timeout=BOOT_TIMEOUT_S)
        if not line.startswith("serving on http://"):
            raise RuntimeError("server did not start: %r" % line)
        host, port = line.split()[2][len("http://"):].split(":")
        self.address = (host, int(port))

    def close(self) -> None:
        """Interrupt the server, which closes its workers, and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def post(address, body: bytes):
    """``(status, body)`` of one ``POST /compile``."""
    connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request(
            "POST", "/compile", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Tally:
    """Per-request records of one window."""

    def __init__(self):
        self.rtt: List[float] = []
        self.elapsed: List[float] = []
        self.client_s = 0.0
        self.keys: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.wall_s = 0.0

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def request(address, job: dict, expected: Dict[tuple, int],
            tally: Tally) -> Optional[float]:
    """One closed-loop request: encode, round trip, decode, check.
    Returns the round trip's seconds if the response passed."""
    started = time.perf_counter()
    body = json.dumps(job).encode("utf-8")
    sent = time.perf_counter()
    try:
        status, data = post(address, body)
    except OSError as error:
        tally.fail("%s: %s" % (job["request_id"], error))
        return
    received = time.perf_counter()
    try:
        envelope = json.loads(data) if status == 200 else {}
    except ValueError as error:
        tally.fail("%s: undecodable response: %s" % (job["request_id"], error))
        return
    ok = bool(envelope.get("ok"))
    size = envelope.get("result", {}).get("metrics", {}).get("code_size") if ok else None
    done = time.perf_counter()
    if status != 200 or not ok:
        tally.fail("%s on %s: HTTP %d, ok=%s" % (
            job["request_id"], job["target"], status, envelope.get("ok")))
        return
    if size != expected[job_key(job)]:
        tally.fail("%s on %s: code_size %s, in-process compile gives %s" % (
            job["request_id"], job["target"], size, expected[job_key(job)]))
        return None
    tally.rtt.append(received - sent)
    tally.elapsed.append(float(envelope.get("elapsed_s", 0.0)))
    tally.client_s += (sent - started) + (done - received)
    tally.keys[job_key(job)] += 1
    return received - sent


def drive(address, stream: JobStream, expected, seconds: Optional[float],
          pacer: Optional[Pacer] = None) -> Tally:
    """Send the stream's jobs one after another for ``seconds`` (or until
    the stream runs out); ``pacer`` records the round trips."""
    tally = Tally()
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds
    while deadline is None or time.perf_counter() < deadline:
        job = stream.next()
        if job is None:
            break
        if pacer is not None:
            pacer.tick()
        tally.attempted += 1
        try:
            rtt = request(address, job, expected, tally)
        except Exception as error:  # keep the loop running; count it
            tally.fail("%s: %s: %s" % (
                job["request_id"], type(error).__name__, error))
            continue
        if pacer is not None and rtt is not None:
            pacer.add(rtt)
    tally.wall_s = time.perf_counter() - started
    return tally


def start_warm(root: str, state_dir: str, seed: int, expected) -> tuple:
    """Start a cold server, wait for one response per target, then warm
    it; ``(server, boot_s, warm_s, speed factor, tallies)``.  The factor
    is the mean of the probes before and after."""
    first = Tally()
    factor = speed_factor()
    started = time.perf_counter()
    server = Server(root, state_dir)
    try:
        server.wait_ready()
        booted = time.perf_counter()
        firsts = {}
        for job in traffic_period():
            firsts.setdefault(job["target"], job)
        for target in TARGETS:
            first.attempted += 1
            request(server.address, dict(firsts[target], request_id="first"),
                    expected, first)
        warm = drive(server.address, JobStream(seed, limit=WARM_PERIODS * PERIOD),
                     expected, None)
    except BaseException:
        server.close()
        raise
    finished = time.perf_counter()
    factor = (factor + speed_factor()) / 2.0
    return server, booted - started, finished - booted, factor, [first, warm]


def reference(traced: bool):
    """In-process compiles of every distinct job: expected code sizes,
    checked outputs and the counts of one period of the stream.  A job
    that fails here keeps ``None`` as its expected size, so every response
    to it fails too."""
    ledger = Ledger()
    sessions = traced_setup(TARGETS, ledger) if traced else plain_setup(TARGETS)
    expected, results, per_key, failures = {}, {}, {}, []
    for job in traffic_period():
        key = job_key(job)
        if key in expected:
            continue
        expected[key] = None
        item = job_item(job)
        session = sessions[item.target]
        try:
            result = session.compile(item.source, name=item.name)
            counts = result_counts(result)
            counts["dyn_ops"], mismatched = check_output(
                result, item, memory_storages(session))
        except Exception as error:  # a failed compile is a failed attempt
            failures.append("%s on %s: %s: %s" % (
                item.name, item.target, type(error).__name__, error))
            continue
        if mismatched:
            failures.append("%s on %s: simulation disagrees with "
                            "Program.execute on %s" % (
                                item.name, item.target, mismatched[:5]))
            continue
        per_key[key] = counts
        expected[key] = result.code_size
        results[key] = (item, result)
    totals = Counter()
    for job in traffic_period():
        totals.update(per_key.get(job_key(job), {}))
    return expected, results, totals, failures, ledger, sessions


def _estimate(keys: Counter, results) -> tuple:
    """In-process frontend and serialization seconds of the jobs the
    window served: per job, the median of a few timings times its count."""
    frontend = serialize = 0.0
    for key, count in keys.items():
        item, result = results[key]
        lower, dump = [], []
        for _ in range(ESTIMATE_REPEATS):
            started = time.perf_counter()
            lower_to_program(item.source, name=item.name)
            middle = time.perf_counter()
            json.dumps(result.to_dict())
            lower.append(middle - started)
            dump.append(time.perf_counter() - middle)
        frontend += statistics.median(lower) * count
        serialize += statistics.median(dump) * count
    return frontend, serialize


def run(root: str, state_dir: str, seed: int, seconds: int, traced: bool):
    expected, results, totals, failures, ref_ledger, ref_sessions = reference(traced)
    boots, warms, setups, tallies = [], [], [], []
    server = None
    try:
        for _ in range(SERVER_STARTS):
            if server is not None:
                server.close()
                server = None
            server, boot, warm, factor, warm_tallies = start_warm(
                root, state_dir, seed, expected)
            boots.append(boot)
            warms.append(warm)
            setups.append((boot + warm) * factor)
            tallies += warm_tallies
        pacer = Pacer()
        window = drive(server.address, JobStream(seed), expected, float(seconds),
                       pacer=pacer)
        scaled = pacer.scaled()
        tallies.append(window)
        if traced:
            replay = drive(server.address, JobStream(seed, limit=window.attempted),
                           expected, None)
            tallies.append(replay)
    finally:
        if server is not None:
            server.close()
    attempted = len(expected) + sum(t.attempted for t in tallies)
    failed = len(failures) + sum(t.failed for t in tallies)
    notes = failures + [note for t in tallies for note in t.notes]
    counts = deterministic_counts(totals)
    print("server starts: %d; window: %d responses in %.3f s, %.1f/s unscaled;"
          " speed factor median %.3f over %d probes"
          % (len(setups), len(window.rtt), window.wall_s,
             len(window.rtt) / max(sum(window.rtt), 1e-9),
             statistics.median(pacer.factors()), len(pacer.factors())))
    if not traced:
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(scaled) / max(sum(scaled), 1e-9),
            "ok_ratio": (attempted - failed) / attempted,
            "code_words": totals["code_words"],
            "dyn_ops": totals["dyn_ops"],
            # The largest process of the server trees, reaped above.
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
        metrics.update(latency_metrics(scaled or [0.0, 0.0]))
        return metrics, counts, attempted, failed, notes

    frontend, serialize = _estimate(replay.keys, results)
    rtt, elapsed = sum(replay.rtt), sum(replay.elapsed)
    wall = replay.wall_s
    attributed = rtt + replay.client_s
    notes += reconcile(wall, attributed)
    metrics = {
        "retarget.s": ref_ledger.seconds["retarget"],
        "session.s": ref_ledger.seconds["session"],
        "grammar.rules": sum(
            len(s.retarget_result.grammar.rules) for s in ref_sessions.values()
        ),
        "server.boot.s": statistics.median(boots),
        "server.warm.s": statistics.median(warms),
        "frontend.s": frontend,
        "serialize.s": serialize,
        "http.overhead_s": rtt - elapsed,
        "service.compile_s": elapsed,
        "client.s": replay.client_s,
        "trace.overhead_ratio": replay.wall_s / (window.wall_s - pacer.probing_s),
        "traced.wall_s": wall,
        "layers.unattributed_s": wall - attributed,
        "layers.unattributed_share": (wall - attributed) / wall,
    }
    metrics.update(count_metrics(totals))
    return metrics, counts, attempted, failed, notes
