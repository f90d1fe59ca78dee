"""Serve load smoke: the benchmark service must degrade, not collapse.

Spawns ``repro serve`` as a subprocess, then drives it with an
**open-loop** load: ``--arrivals`` submissions on a fixed deterministic
schedule (arrival *i* fires at ``i / --rate`` seconds, whether or not
earlier requests finished).  The workload cycles through a small
matrix of matmul cells so the first submission of each key does real
work and repeats exercise the service-side memo table.

Gates (exit non-zero on any violation):

* **no lost jobs** — every accepted job reaches a terminal state
  (``done`` / ``failed`` / ``evicted`` / ``cancelled``); a job still
  ``queued``/``running`` when the dust settles is a bug;
* **structured load shedding** — every rejected submission carries a
  machine-readable ``code`` (``overloaded`` / ``circuit_open`` /
  ``draining``) and a ``retry_after`` hint;
* **latency budgets** — p50 / p99 of accepted-job latency under
  ``--p50-budget`` / ``--p99-budget`` seconds;
* **goodput** — ``done / accepted >= --min-goodput`` (lower the bar in
  chaos mode, where injected faults legitimately fail some cells);
* **bit-identity** — a served result for one cell equals a direct
  in-process :func:`measure_cell` run of the same cell, field for field;
* **clean drain** — SIGTERM makes the service exit 0, and a scan of
  ``/proc/*/environ`` for the marker env var finds zero orphan workers.

Chaos mode: pass ``--inject worker:0.1,trap:0.05`` (forwarded to the
service) to prove the gates hold while workers are being shot.

Writes a JSON artifact (latency histogram + percentiles + service
stats) for CI upload.

Usage::

    PYTHONPATH=src python bench/serve_load.py [--arrivals 120] \
        [--inject worker:0.1,trap:0.05] [--output serve_load.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

MARKER = "SERVE_LOAD_MARKER"
SHED_CODES = ("overloaded", "circuit_open", "draining")
HIST_BOUNDS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)

#: The benchmark matrix: dims small enough that a cell is sub-second
#: warm, distinct enough that chaos has real dispatches to shoot.
DIMS = (6, 7, 8, 9, 10, 11, 12, 13)
TARGETS = ("native", "chrome")


def workload(i: int) -> tuple:
    """Deterministic (benchmark, target, priority, deadline) for slot i."""
    n = DIMS[i % len(DIMS)]
    target = TARGETS[(i // len(DIMS)) % len(TARGETS)]
    priority = (-1, 0, 0, 1)[i % 4]
    deadline = 60.0 if i % 7 == 3 else None
    return f"matmul-{n}x{n}x{n}", target, priority, deadline


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def histogram(values) -> list:
    counts = [0] * (len(HIST_BOUNDS) + 1)
    for v in values:
        for b, bound in enumerate(HIST_BOUNDS):
            if v <= bound:
                counts[b] += 1
                break
        else:
            counts[-1] += 1
    return [{"le": b, "count": c}
            for b, c in zip(list(HIST_BOUNDS) + ["inf"], counts)]


class Client:
    """Thin JSON-RPC client over urllib (one call per request)."""

    def __init__(self, port: int):
        self.url = f"http://127.0.0.1:{port}/rpc"
        self._id = 0
        self._lock = threading.Lock()

    def call(self, method: str, params: dict, timeout: float = 15.0):
        with self._lock:
            self._id += 1
            rid = self._id
        body = json.dumps({"jsonrpc": "2.0", "id": rid,
                           "method": method, "params": params}).encode()
        req = urllib.request.Request(
            self.url, data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read())


def drive_one(rpc: Client, i: int, t0: float, rate: float, runs: int,
              records: list, terminal_deadline: float) -> None:
    """One open-loop arrival: sleep to slot, submit, wait to terminal."""
    benchmark, target, priority, deadline = workload(i)
    rec = {"i": i, "benchmark": benchmark, "target": target,
           "accepted": False, "state": None, "shed_code": None,
           "latency": None, "memo_hit": False, "error": None}
    records[i] = rec
    time.sleep(max(0.0, t0 + i / rate - time.monotonic()))
    submitted = time.monotonic()
    params = {"benchmark": benchmark, "target": target, "runs": runs,
              "client": "serve-load", "priority": priority}
    if deadline is not None:
        params["deadline_s"] = deadline
    try:
        reply = rpc.call("submit", params)
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        rec["error"] = f"transport: {exc}"
        return
    if "error" in reply:
        data = reply["error"].get("data") or {}
        rec["state"] = "shed"
        rec["shed_code"] = data.get("code")
        rec["retry_after"] = data.get("retry_after")
        return
    rec["accepted"] = True
    job_id = reply["result"]["job_id"]
    while time.monotonic() < terminal_deadline:
        try:
            status = rpc.call("wait", {"job_id": job_id,
                                       "timeout_s": 10.0},
                              timeout=20.0)["result"]
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            rec["error"] = f"transport: {exc}"
            return
        if status.get("terminal"):
            rec["state"] = status["state"]
            rec["memo_hit"] = status.get("memo_hit", False)
            rec["latency"] = time.monotonic() - submitted
            rec["result"] = status.get("result")
            return
    rec["state"] = "lost"   # accepted but never terminal: the bug


def direct_cell(benchmark: str, target: str, runs: int) -> dict:
    """The same cell measured in-process — the bit-identity reference."""
    from repro.cli import _resolve_spec
    from repro.resilience import RetryPolicy
    from repro.resilience.cell import measure_cell
    from repro.serve.executor import MAX_INSTRUCTIONS, result_payload

    spec = _resolve_spec(benchmark, "test")
    result, failure, _seconds, attempts = measure_cell(
        spec, target, runs=runs, max_instructions=MAX_INSTRUCTIONS,
        policy=RetryPolicy(retries=2))
    assert failure is None, f"direct run failed: {failure}"
    return result_payload(result, attempts=attempts)


def scan_orphans(token: str) -> list:
    """Pids whose environment still carries the marker token."""
    orphans = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if token.encode() in fh.read():
                    orphans.append(int(pid))
        except OSError:
            continue
    return orphans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arrivals", type=int, default=120,
                        help="total submissions (default 120)")
    parser.add_argument("--rate", type=float, default=60.0,
                        help="arrival rate per second (default 60)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--inject", default=None,
                        help="fault plan forwarded to the service")
    parser.add_argument("--inject-seed", type=int, default=1)
    parser.add_argument("--p50-budget", type=float, default=15.0)
    parser.add_argument("--p99-budget", type=float, default=60.0)
    parser.add_argument("--min-goodput", type=float, default=0.9)
    parser.add_argument("--settle", type=float, default=180.0,
                        help="max seconds to wait for terminal states")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    token = f"serve-load-{os.getpid()}-{int(time.time())}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    env[MARKER] = token
    cmd = [sys.executable, "-m", "repro", "serve",
           "--host", "127.0.0.1", "--port", "0",
           "--workers", str(args.workers), "--runs", str(args.runs),
           "--queue-depth", str(args.queue_depth), "--grace", "30"]
    if args.inject:
        cmd += ["--inject", args.inject,
                "--inject-seed", str(args.inject_seed)]
    print(f"[serve-load] starting service: {' '.join(cmd[2:])}",
          flush=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if not match:
        proc.kill()
        print(f"[serve-load] no banner from service: {banner!r}")
        return 2
    port = int(match.group(1))
    rpc = Client(port)
    print(f"[serve-load] service up on port {port}; "
          f"{args.arrivals} arrivals at {args.rate}/s", flush=True)

    records = [None] * args.arrivals
    t0 = time.monotonic() + 0.25
    terminal_deadline = t0 + args.arrivals / args.rate + args.settle
    threads = [threading.Thread(
        target=drive_one,
        args=(rpc, i, t0, args.rate, args.runs, records,
              terminal_deadline), daemon=True)
        for i in range(args.arrivals)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=max(0.0, terminal_deadline - time.monotonic())
               + 30.0)

    stats = rpc.call("stats", {}, timeout=15.0)["result"]

    # -- drain: SIGTERM must exit 0 with no orphans ----------------------------------
    proc.send_signal(signal.SIGTERM)
    try:
        tail, _ = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        proc.kill()
        tail = "(killed: drain hung)"
    time.sleep(0.5)
    orphans = scan_orphans(token)

    # -- tally -----------------------------------------------------------------------
    accepted = [r for r in records if r and r["accepted"]]
    done = [r for r in accepted if r["state"] == "done"]
    failed = [r for r in accepted if r["state"] == "failed"]
    evicted = [r for r in accepted
               if r["state"] in ("evicted", "cancelled")]
    lost = [r for r in accepted
            if r["state"] not in ("done", "failed", "evicted",
                                  "cancelled")]
    shed = [r for r in records if r and r["state"] == "shed"]
    transport = [r for r in records if r and r["error"]]
    latencies = [r["latency"] for r in done if r["latency"] is not None]
    goodput = len(done) / len(accepted) if accepted else 1.0
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)

    failures = []
    if lost:
        failures.append(f"{len(lost)} accepted jobs never reached a "
                        f"terminal state: "
                        f"{[(r['i'], r['state']) for r in lost[:5]]}")
    bad_shed = [r for r in shed if r["shed_code"] not in SHED_CODES
                or not isinstance(r.get("retry_after"), (int, float))]
    if bad_shed:
        failures.append(f"{len(bad_shed)} sheds missing structured "
                        f"code/retry_after")
    if transport:
        failures.append(f"{len(transport)} transport errors: "
                        f"{transport[0]['error']}")
    if goodput < args.min_goodput:
        failures.append(f"goodput {goodput:.3f} < {args.min_goodput}")
    if p50 > args.p50_budget:
        failures.append(f"p50 {p50:.2f}s > budget {args.p50_budget}s")
    if p99 > args.p99_budget:
        failures.append(f"p99 {p99:.2f}s > budget {args.p99_budget}s")
    if proc.returncode != 0:
        failures.append(f"service exit code {proc.returncode} != 0 "
                        f"after SIGTERM; tail: {tail[-300:]}")
    if orphans:
        failures.append(f"orphan worker processes survived drain: "
                        f"{orphans}")

    # -- bit-identity: a served result vs a direct in-process run --------------------
    reference = next((r for r in done if r.get("result")), None)
    identical = None
    if reference is not None:
        served = dict(reference["result"])
        direct = direct_cell(reference["benchmark"],
                             reference["target"], args.runs)
        for key in ("attempts", "memo"):
            served.pop(key, None)
            direct.pop(key, None)
        identical = served == direct
        if not identical:
            diff = {k: (served.get(k), direct.get(k))
                    for k in set(served) | set(direct)
                    if served.get(k) != direct.get(k)}
            failures.append(f"served result not bit-identical to "
                            f"direct run: {diff}")
    elif done:
        failures.append("no done job carried a result payload")

    summary = {
        "config": vars(args),
        "arrivals": args.arrivals,
        "accepted": len(accepted),
        "done": len(done),
        "failed": len(failed),
        "evicted": len(evicted),
        "shed": len(shed),
        "lost": len(lost),
        "memo_hits": sum(1 for r in done if r["memo_hit"]),
        "goodput": round(goodput, 4),
        "latency": {"p50": round(p50, 4), "p99": round(p99, 4),
                    "histogram": histogram(latencies)},
        "sheds_by_code": {code: sum(1 for r in shed
                                    if r["shed_code"] == code)
                          for code in SHED_CODES},
        "bit_identical": identical,
        "service_exit_code": proc.returncode,
        "orphan_workers": orphans,
        "service_stats": stats,
        "failures": failures,
    }
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"[serve-load] wrote {args.output}", flush=True)

    print(f"[serve-load] accepted={len(accepted)} done={len(done)} "
          f"failed={len(failed)} evicted={len(evicted)} "
          f"shed={len(shed)} lost={len(lost)} goodput={goodput:.3f} "
          f"p50={p50:.2f}s p99={p99:.2f}s "
          f"bit_identical={identical} exit={proc.returncode} "
          f"orphans={len(orphans)}", flush=True)
    if failures:
        for failure in failures:
            print(f"[serve-load] FAIL: {failure}")
        return 1
    print("[serve-load] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
