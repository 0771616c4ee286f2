"""``serve``: resnet18-tiny at a8w8 behind a threaded ``BatchedServer``.

The only workload that goes through admission, the micro-batcher and
the worker pool.  Requests are single 1x12x12 images, so batches are
small and per-call overhead in the runtime layers dominates.

* Phase A, open loop: Poisson arrivals at a fixed rate (an argument of
  the benchmark command, well under capacity).  Latency is timed from
  each request's due time, so a stall also charges the requests it
  delays.  The rate never depends on the commit under test.
* Phase B, closed loop: a fixed number of requests outstanding, each
  resubmitted from its predecessor's done-callback.  It runs in
  ``CLOSED_SLICES`` equal slices, each drained before the next, with
  ``harness.reference_loop`` timed in the gaps; capacity is the median
  slice rate scaled to the reference host speed (see ``harness``) by
  the median reference time, and the unscaled median is printed too.

All load comes from the main thread and the server's own worker threads
(which run the callbacks); no generator thread is started.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from collections import Counter

import numpy as np

from harness import Outcome, host_speed, pct, speed_factor
from layers import plan_metrics
from spans import Tracer, traced_plans

ARCH = "resnet18"
BITS = 8
IMAGE_SHAPE = (1, 12, 12)
#: Distinct request images; every response is checked against the
#: numpy engine's output for its image.
POOL = 64
SERVER_KW = dict(backend="mixgemm", workers=2, max_batch=8,
                 max_wait_ms=2.0, queue_capacity=64, admission="block")
#: Requests outstanding in phase B (workers x max_batch).
OUTSTANDING = 16
#: Share of the run spent in phase A; the rest is phase B, whose
#: capacity is the compared metric.
OPEN_SHARE = 0.2
#: Phase B ramp-up, run but not counted: switching from phase A's small
#: batches to full ones takes the plans' GEMMs a while to settle.
WARMUP_S = 1.0
#: Equal slices of phase B; capacity comes from the median slice rate.
CLOSED_SLICES = 10
#: Pause before the reference loop is timed between phase-B slices.
REF_SETTLE_S = 0.05
#: Lead time before the first arrival of phase A.
LEAD_S = 0.05
DRAIN_TIMEOUT_S = 60.0


def arrival_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Due times (s from phase start) of a Poisson process at ``rate``.

    A pure function of its arguments: the schedule never depends on how
    fast the system under test is.
    """
    rng = np.random.default_rng([seed, 1])
    n = int(rate * seconds * 2) + 64
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return due[due < seconds]


def request_images(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0]).standard_normal(
        (POOL, *IMAGE_SHAPE))


def image_choices(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 2]).integers(POOL, size=n)


class _Completion:
    """Counts resolved futures; the main thread waits for all of them."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.pending = 0

    def add(self) -> None:
        with self.cond:
            self.pending += 1

    def done(self) -> None:
        with self.cond:
            self.pending -= 1
            if self.pending == 0:
                self.cond.notify_all()

    def wait(self) -> bool:
        with self.cond:
            return self.cond.wait_for(lambda: self.pending == 0,
                                      timeout=DRAIN_TIMEOUT_S)


class ServeWorkload:
    """Set-up, measurement and per-layer metrics of ``serve``."""

    def __init__(self, seed: int, rate: float) -> None:
        self.seed = seed
        self.rate = rate
        self.images = request_images(seed)
        self.server = None

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> tuple[float, bool]:
        """Cold start to the first correct response."""
        from repro.models.builders import build_tiny
        from repro.nn.layers import seed_init
        from repro.runtime import InferenceEngine, export_model
        from repro.runtime.serving import BatchedServer

        t0 = time.perf_counter()
        seed_init(self.seed)
        model = build_tiny(ARCH, act_bits=BITS, weight_bits=BITS)
        model.eval()
        self.graph = export_model(model, name=ARCH)
        self.server = BatchedServer(self.graph, **SERVER_KW)
        t1 = time.perf_counter()
        first = self.server.submit(self.images[0]).result(
            timeout=DRAIN_TIMEOUT_S)
        t2 = time.perf_counter()
        self.compile_s, self.warmup_s = t1 - t0, t2 - t1

        reference = InferenceEngine(self.graph, backend="numpy")
        self.refs = [reference.run(x[None]).output[0] for x in self.images]
        return t2 - t0, bool(np.array_equal(first.output, self.refs[0]))

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def macs_per_cycle(self) -> float:
        """Modelled MACs per cycle of one single-image request."""
        from repro.runtime import compile_graph

        plan = compile_graph(self.graph, backend=SERVER_KW["backend"])
        result = plan.run(self.images[0][None])
        return result.total_macs / result.total_cycles

    # -- measurement ----------------------------------------------------------

    def _status(self, response, idx: int) -> str:
        """``ok``, ``shed``, ``error`` or ``mismatch`` (against the numpy
        engine, bit for bit)."""
        from repro.robustness.errors import OverloadError

        if isinstance(response, OverloadError):
            return "shed"
        if isinstance(response, BaseException) or response is None:
            return "error"
        if not np.array_equal(response.output, self.refs[idx]):
            return "mismatch"
        return "ok"

    @staticmethod
    def _count(statuses: Counter, out: Outcome) -> None:
        out.attempted += sum(statuses.values())
        out.failed += sum(n for status, n in statuses.items()
                          if status != "ok")
        out.mismatches += statuses["mismatch"]
        out.notes["shed"] = out.notes.get("shed", 0) + statuses["shed"]

    def _open_loop(self, seconds: float, tracer: Tracer | None,
                   out: Outcome) -> dict:
        """Phase A: submit on the Poisson schedule from the main thread."""
        from repro.robustness.errors import OverloadError

        schedule = arrival_schedule(self.seed, self.rate, seconds)
        n = len(schedule)
        choices = image_choices(self.seed, n)
        responses: list = [None] * n
        done_at = np.zeros(n)
        late = np.zeros(n)
        served_by: list = [None] * n
        completion = _Completion()
        submit = self.server.submit

        def on_done(i, fut):
            done_at[i] = time.perf_counter()
            exc = fut.exception()
            responses[i] = exc if exc is not None else fut.result()
            if tracer is not None:
                served_by[i] = tracer.last_run()
            completion.done()

        due = time.perf_counter() + LEAD_S + schedule
        for i in range(n):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late[i] = time.perf_counter() - due[i]
            x = self.images[choices[i]]
            completion.add()
            try:
                if tracer is None:
                    fut = submit(x)
                else:
                    with tracer.span("serving.submit", request_id=i):
                        fut = submit(x)
            except OverloadError as exc:
                responses[i] = exc
                completion.done()
                continue
            fut.add_done_callback(lambda f, i=i: on_done(i, f))
        if not completion.wait():
            raise RuntimeError("open-loop requests did not drain")

        self._count(Counter(self._status(r, idx)
                            for r, idx in zip(responses, choices)), out)
        ok = [i for i in range(n)
              if not isinstance(responses[i], BaseException)]
        phase = {"latency_ms": (done_at[ok] - due[ok]) * 1000.0,
                 "late_ms": late * 1000.0, "queue_wait_ms": []}
        if tracer is not None:
            for i in ok:
                run = served_by[i]
                if run is not None:
                    phase["queue_wait_ms"].append(
                        responses[i].latency_ms - run.dur_ns * 1e-6)
                tracer.add("request", int(due[i] * 1e9),
                           int(done_at[i] * 1e9), request_id=i)
        return phase

    def _closed_loop(self, seconds: float, out: Outcome) -> dict:
        """Phase B: ``WARMUP_S`` of ramp-up, then ``CLOSED_SLICES``
        counted slices of ``seconds`` in all.  Each slice keeps
        ``OUTSTANDING`` requests in flight, then drains; between slices
        ``reference_loop`` times the host, idle but for it."""
        from repro.robustness.errors import OverloadError

        # Re-entrant: a future that resolves before add_done_callback
        # runs its callback at once, on the thread holding the lock.
        lock = threading.RLock()
        # Responses are checked as they arrive and only counted, so
        # memory does not grow with the number completed.
        state = {"stop": True, "next": 0, "ok": 0}
        statuses: Counter = Counter()
        order = image_choices(self.seed + 1, 4096)
        completion = _Completion()
        submit = self.server.submit

        def launch():
            """Submit the next request; called with ``lock`` held."""
            i = state["next"]
            state["next"] += 1
            idx = int(order[i % len(order)])
            completion.add()
            try:
                fut = submit(self.images[idx])
            except OverloadError as exc:
                statuses[self._status(exc, idx)] += 1
                completion.done()
                return
            fut.add_done_callback(lambda f, idx=idx: on_done(idx, f))

        def on_done(idx, fut):
            exc = fut.exception()
            status = self._status(exc if exc is not None else fut.result(),
                                  idx)
            with lock:
                statuses[status] += 1
                state["ok"] += status == "ok"
                if not state["stop"]:
                    launch()
            completion.done()

        def burst(duration: float) -> tuple[int, float]:
            """Closed loop for ``duration`` s, then drain: ``(requests
            served correctly, seconds from first submit to drained)``;
            the interval goes to ``slices``."""
            with lock:
                state["stop"] = False
                served = state["ok"]
                t0 = time.perf_counter()
                for _ in range(OUTSTANDING):
                    launch()
            time.sleep(duration)
            with lock:
                state["stop"] = True
            if not completion.wait():
                raise RuntimeError("closed-loop requests did not drain")
            t1 = time.perf_counter()
            slices.append((int(t0 * 1e9), int(t1 * 1e9)))
            return state["ok"] - served, t1 - t0

        def settled_host_speed() -> float:
            """``host_speed`` once the BLAS helper threads of the last
            batch have gone idle."""
            time.sleep(REF_SETTLE_S)
            return host_speed()

        slices: list[tuple[int, int]] = []
        burst(WARMUP_S)
        slices.clear()
        refs = [settled_host_speed()]
        rates = []
        for _ in range(CLOSED_SLICES):
            served, dt = burst(seconds / CLOSED_SLICES)
            refs.append(settled_host_speed())
            rates.append(served / dt)

        self._count(statuses, out)
        # Medians over the phase, so a burst of host contention shorter
        # than half of it does not move the result.  The reference loop
        # runs on one CPU for a moment while the server used both for a
        # whole slice, so slices are not scaled one by one.
        unscaled = pct(rates, 50)
        return {"capacity_rps": unscaled * speed_factor(
                    [statistics.median(refs)]),
                "unscaled_rps": unscaled,
                "slices_ns": slices}

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Outcome:
        """Phase A, then phase B.

        Phase A goes first so that it does not start in the wake of
        phase B's full batches, whose multi-threaded BLAS calls leave
        helper threads busy for a while.
        """
        out = Outcome()
        ctx = (traced_plans(tracer) if tracer is not None
               else contextlib.nullcontext())
        with ctx:
            opened = self._open_loop(seconds * OPEN_SHARE, tracer, out)
            closed = self._closed_loop(seconds * (1 - OPEN_SHARE), out)
        latency_ms = opened["latency_ms"]
        out.metrics = {"throughput_per_s": closed["capacity_rps"]}
        # Open-loop latency swings by more than any allowed bound between
        # runs of the same code (host contention, and rare batches large
        # enough for multi-threaded BLAS), so it is printed, not compared.
        out.notes.update({
            "unscaled_capacity_rps": round(closed["unscaled_rps"], 1),
            "open_loop_requests": len(latency_ms),
            "latency_p50_ms": round(pct(latency_ms, 50), 3),
            "latency_p90_ms": round(pct(latency_ms, 90), 3),
            "latency_p99_ms": round(pct(latency_ms, 99), 3),
            "phases": {"closed": closed, "open": opened}})
        return out

    def layer_metrics(self, tracer: Tracer, out: Outcome) -> dict:
        phases = out.notes["phases"]
        slices = phases["closed"]["slices_ns"]
        runs_b = [s for s in tracer.named("plan.run")
                  if any(lo <= s.start_ns and s.end_ns <= hi
                         for lo, hi in slices)]
        opened = phases["open"]
        metrics = plan_metrics(tracer, tracer.plans[0])
        metrics.update({
            "serving.submit_us_p50": pct(
                [s.dur_ns * 1e-3 for s in tracer.named("serving.submit")],
                50),
            "serving.queue_wait_ms_p50": pct(opened["queue_wait_ms"], 50),
            "serving.queue_wait_ms_p99": pct(opened["queue_wait_ms"], 99),
            "serving.batch_size_mean": (
                sum(s.args["batch"] for s in runs_b) / len(runs_b)
                if runs_b else 0.0),
            "serving.worker_busy_frac": (
                sum(s.dur_ns for s in runs_b)
                / (SERVER_KW["workers"]
                   * sum(hi - lo for lo, hi in slices))),
            "serving.shed_total": float(out.notes.get("shed", 0)),
            "loadgen.late_p99_ms": pct(opened["late_ms"], 99),
        })
        return metrics
