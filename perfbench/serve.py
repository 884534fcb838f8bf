"""The ``serve-mixed`` workload: a closed loop against ``repro.serve``.

``nproc`` client threads each send their next request only after the
previous reply is complete.  Each client repeats a fixed cycle of ten
requests: eight warm replays of the ``sweep-8t`` figure sweep (30
points at the default scale, cached before the loop starts), one cold
sweep of one point of that sweep at a golden seed the daemon has not
seen, and one fuzz campaign of the daemon's default size.  Cold
and fuzz requests keep the worker pool busy while the warm replays are
timed.  No daemon traffic has been recorded, so the 8:1:1 cycle is an
assumption: most requests are cached reads.

Every run issues the same ``spec.FUZZ_CAMPAIGNS`` fuzz campaigns, and
later fuzz requests repeat them in order.  A campaign's violations are
counted once, so the failures of a run depend on its seed, not on how
many requests the host completes in the window.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from perfbench import golden, measure, spec
from perfbench.measure import Ledger

#: Request kinds of one client cycle.
CYCLE = ("warm",) * 4 + ("cold",) + ("warm",) * 4 + ("fuzz",)

READY_TIMEOUT_S = 60.0
#: Short, because the poll interval bounds how finely set-up is timed.
READY_POLL_S = 0.005
REQUEST_TIMEOUT_S = 60.0


class Daemon:
    """One ``python -m repro.serve`` child process on an ephemeral port."""

    def __init__(self, root: str, env: dict, cache_dir: pathlib.Path,
                 trace_dir: Optional[pathlib.Path] = None) -> None:
        jobs = str(measure.nproc())
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [sys.executable, "-m", "perfbench.serve_traced", str(trace_dir)]
        command += ["--port", "0", "--jobs", jobs]
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=dict(env, REPRO_CACHE_DIR=str(cache_dir)),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                raise RuntimeError("daemon exited before listening")
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1].split()[0])
        while time.monotonic() < deadline:
            status, _ = self.get("/readyz")
            if status == 200:
                return
            time.sleep(READY_POLL_S)
        raise RuntimeError("daemon never became ready")

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> tuple[int, Optional[dict]]:
        conn = self._connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            return response.status, json.loads(body) if body else None
        finally:
            conn.close()

    def post(self, path: str, payload: dict, request_id: str) -> dict:
        """POST and read the reply; times the first line and the whole."""
        conn = self._connect()
        sent = time.perf_counter()
        try:
            conn.request(
                "POST",
                path,
                body=json.dumps(payload),
                headers={"Content-Type": "application/json", "X-Request-Id": request_id},
            )
            response = conn.getresponse()
            first = response.readline()
            first_at = time.perf_counter()
            body = first + response.read()
            done_at = time.perf_counter()
        finally:
            conn.close()
        lines = [json.loads(line) for line in body.splitlines() if line.strip()]
        return {
            "status": response.status,
            "events": lines,
            "first_s": first_at - sent,
            "total_s": done_at - sent,
        }

    def stop(self) -> None:
        """SIGTERM, then wait; SIGKILL if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def spawn_ready(root, env, cache_dir, trace_dir=None) -> tuple[Daemon, float]:
    started = time.perf_counter()
    daemon = Daemon(root, env, cache_dir, trace_dir)
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


@dataclass
class Samples:
    warm_s: list = field(default_factory=list)
    warm_first_s: list = field(default_factory=list)
    cold_s: list = field(default_factory=list)
    fuzz_s: list = field(default_factory=list)
    fuzz_cases: int = 0
    window_s: float = 0.0  # first send to last reply
    warm_not_cached: int = 0
    keys: dict = field(default_factory=dict)  # result key -> point id


class Mix:
    """Closed-loop state of one run: the cold-request pool and fuzz verdicts.

    It outlives a daemon session, so a campaign's violations are counted
    once per run, the traced session of a per-layer run included.
    """

    def __init__(self, seed: int, ledger: Ledger, goldens: golden.Goldens,
                 clients: int) -> None:
        self.seed = seed
        self.ledger = ledger
        self.goldens = goldens
        self.clients = clients
        self.warm = spec.warm_request(seed)
        self.cold = spec.cold_requests(seed)
        self.fuzz_violations: dict[int, int] = {}  # campaign -> first verdict
        self.lock = threading.Lock()
        self.start(None)

    def start(self, daemon: Optional[Daemon], tracer=None) -> None:
        """Begin a session against ``daemon``."""
        self.daemon = daemon
        self.tracer = tracer
        self.samples = Samples()
        self.fuzz_index = 0

    def _post(self, path: str, payload: dict, request_id: str) -> dict:
        if self.tracer is None:
            return self.daemon.post(path, payload, request_id)
        with self.tracer.span("serve.client", request=request_id):
            return self.daemon.post(path, payload, request_id)

    def sweep(self, request: dict, request_id: str) -> Optional[dict]:
        """Send one sweep and check every returned point against the golden."""
        try:
            reply = self._post("/v1/sweep", request, request_id)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            with self.lock:
                self.ledger.fail(f"{request_id}: {type(exc).__name__}: {exc}")
            return None
        events = reply["events"]
        done = events[-1] if events else {}
        problems = []
        by_name = {
            (p[0], p[1]): spec.point_id(p) for p in spec.request_points(request)
        }
        points = [e for e in events if e.get("event") == "point"]
        seen = {}
        for event in points:
            pid = by_name.get((event.get("benchmark"), event.get("policy")))
            if pid is None:
                problems.append(f"unrequested point {event}")
            else:
                seen[event["key"]] = pid
                problems += self.goldens.problems(pid, event)
        if done.get("event") != "done" or len(seen) != len(by_name):
            problems.append(f"incomplete stream ({len(seen)}/{len(by_name)} points)")
        with self.lock:
            self.samples.keys.update(seen)
            if self.ledger.reply(reply["status"], done, request_id, problems[:3]):
                reply["from_cache"] = done.get("from_cache")
                return reply
        return None

    def fuzz(self, index: int, request_id: str) -> Optional[dict]:
        """Send the run's fuzz request ``index``: campaign ``index mod FUZZ_CAMPAIGNS``."""
        campaign = index % spec.FUZZ_CAMPAIGNS
        request = spec.fuzz_request(self.seed, campaign)
        try:
            reply = self._post("/v1/fuzz", request, request_id)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            with self.lock:
                self.ledger.fail(f"{request_id}: {type(exc).__name__}: {exc}")
            return None
        payload = reply["events"][-1] if reply["events"] else None
        answered = 200 <= reply["status"] < 300 and payload is not None
        violations = payload.get("num_violations", 0) if answered else None
        with self.lock:
            what = f"{request_id} (fuzz seed {request['seed']})"
            earlier = self.fuzz_violations.get(campaign) if answered else None
            if earlier is not None and violations != earlier:
                self.ledger.fail(
                    f"{what}: {violations} fuzz violation(s), {earlier} on an "
                    "earlier run of the same campaign"
                )
                return None
            if earlier:
                self.ledger.ok()  # the same violations, counted once already
            elif not self.ledger.reply(reply["status"], payload, what):
                if answered:
                    self.fuzz_violations.setdefault(campaign, violations)
                return None
            self.fuzz_violations.setdefault(campaign, violations)
            reply["runs"] = payload.get("runs", 0)
            return reply

    def client(self, index: int, deadline: float) -> None:
        try:
            self._client(index, deadline)
        except Exception as exc:  # a dead client must not pass unnoticed
            with self.lock:
                self.ledger.fail(f"client {index}: {type(exc).__name__}: {exc}")

    def _client(self, index: int, deadline: float) -> None:
        step = index * len(CYCLE) // self.clients
        count = 0
        while time.perf_counter() < deadline:
            kind = CYCLE[step % len(CYCLE)]
            step += 1
            count += 1
            request_id = f"c{index}-{count}-{kind}"
            if kind == "cold":
                with self.lock:
                    request = self.cold.pop(0) if self.cold else None
                if request is None:
                    continue
                reply = self.sweep(request, request_id)
                if reply is not None:
                    with self.lock:
                        self.samples.cold_s.append(reply["total_s"])
            elif kind == "fuzz":
                with self.lock:
                    fuzz_index = self.fuzz_index
                    self.fuzz_index += 1
                reply = self.fuzz(fuzz_index, request_id)
                if reply is not None:
                    with self.lock:
                        self.samples.fuzz_s.append(reply["total_s"])
                        self.samples.fuzz_cases += reply["runs"]
            else:
                reply = self.sweep(self.warm, request_id)
                if reply is not None:
                    with self.lock:
                        self.samples.warm_s.append(reply["total_s"])
                        self.samples.warm_first_s.append(reply["first_s"])
                        if reply["from_cache"] != len(reply["events"]) - 1:
                            self.samples.warm_not_cached += 1

    def prime(self) -> None:
        """Fill the daemon's cache with the warm sweep (not timed)."""
        self.sweep(self.warm, "prime")

    def run(self, seconds: float) -> Samples:
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(target=self.client, args=(i, deadline), daemon=True)
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("serve client did not finish")
        self.samples.window_s = time.perf_counter() - started
        # Untimed: the fixed campaigns a slow host did not reach.
        for index in range(self.fuzz_index, spec.FUZZ_CAMPAIGNS):
            self.fuzz(index, f"fixed-{index}-fuzz")
        return self.samples

    def check_results(self) -> list:
        """Fetch each distinct result once and check its counters."""
        from repro.system.summary import ResultSummary

        summaries = {}
        for key, pid in sorted(self.samples.keys.items()):
            try:
                status, payload = self.daemon.get(f"/v1/result/{key}")
            except (OSError, http.client.HTTPException, ValueError) as exc:
                self.ledger.fail(f"result {pid}: {type(exc).__name__}: {exc}")
                continue
            if status != 200 or payload is None:
                self.ledger.fail(f"result {pid}: HTTP {status}")
                continue
            try:
                summary = ResultSummary.from_json_dict(payload)
            except (KeyError, TypeError, ValueError) as exc:
                self.ledger.fail(f"result {pid}: unreadable summary: {exc}")
                continue
            summaries[pid] = summary
            self.ledger.check(self.goldens.problems(pid, golden.observe(summary)), pid)
        return summaries


    def measure(self, daemon: Daemon, seconds: float, tracer=None, speed=None) -> dict:
        """Prime, run the closed loop, read ``/metrics``, check results.

        ``speed`` (a ``calibrate.HostSpeed``) is sampled right before and
        right after the closed loop.
        """
        self.start(daemon, tracer)
        self.prime()
        if speed is not None:
            speed.sample()
        samples = self.run(seconds)
        if speed is not None:
            speed.sample()
        status, metrics = daemon.get("/metrics")
        if status != 200 or metrics is None:
            self.ledger.fail(f"/metrics: HTTP {status}")
            metrics = {}
        summaries = self.check_results()
        warm_pids = {spec.point_id(p) for p in spec.request_points(self.warm)}
        return {
            "samples": samples,
            "clients": self.clients,
            "metrics": metrics,
            "warm_summaries": [s for pid, s in summaries.items() if pid in warm_pids],
        }
