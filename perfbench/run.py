#!/usr/bin/env python3
"""End-to-end benchmark of the SABRE mapper through its four entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the programs, writes the
workload's inputs from the seed, and then

  --trace 0  drives the real entry point as child processes for S seconds
             (`sabre_compile` file mode, `--batch`, `--stream`, or a spawned
             `sabre_serve`), checks every output independently with
             Sim.Tracker, and reports the end-to-end metrics;
  --trace 1  replays the same inputs in one process with a span around each
             call into a layer (perfbench/trace.ml; serve-mix's replay is
             the client side, against fresh daemons) and reports the
             per-layer metrics, the time no span accounts for and the
             tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json, each with its unit. The line before it
carries the run's metadata, the sample count behind each timing and the
details behind the metrics. `--workload all` runs the four workloads in
turn and prints both lines for each.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from statistics import median

WORKLOADS = ("table2-batch", "grid400-cli", "stream-1m", "serve-mix")
BUILD = ["bin/sabre_compile.exe", "bin/sabre_serve.exe", "perfbench/pb.exe"]
COMPILE = "_build/default/bin/sabre_compile.exe"
SERVE = "_build/default/bin/sabre_serve.exe"
PB = "_build/default/perfbench/pb.exe"

SETUP_REPEATS = 15  # set-ups per run; setup_s is their median
MIN_CALLS = 3  # timed CLI calls per run, however long they take
SERVE_FIRST = 1500  # serve-mix swaps, depth and memory cover the first replies
SERVE_BLOCK = 1000  # serve-mix rates and p99 are medians over blocks this long
SERVE_TRACE_REQUESTS = 1000  # requests the serve-mix traced run replays
CALL_LIMIT_S = 150  # a child still running after this is killed


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(args, cwd, stdout=subprocess.DEVNULL, limit=CALL_LIMIT_S):
    """Run one child; return (wall seconds, peak RSS in KiB, exit code).

    The wall time spans spawn to reap, and the peak RSS is the reaped
    child's own max RSS."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, cwd=cwd, stdout=stdout, stderr=subprocess.PIPE)
    killer = threading.Timer(limit, p.kill)
    killer.start()
    try:
        err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
        p.stderr.close()
    wall = time.perf_counter() - t0
    # reaped here, so tell Popen the child is gone
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        print(f"perfbench: {' '.join(args)}: exit {p.returncode}: "
              f"{err.decode(errors='replace')[-500:]}", file=sys.stderr)
    return wall, usage.ru_maxrss, p.returncode


def pb(args, cwd):
    """Run the helper; its last stdout line is JSON."""
    out = subprocess.run([os.path.abspath(PB)] + args, cwd=cwd, capture_output=True,
                         text=True, timeout=CALL_LIMIT_S)
    if out.returncode != 0:
        fail(f"pb {args[0]}: exit {out.returncode}: {out.stderr[-800:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def nearest_rank(xs, p):
    s = sorted(xs)
    k = max(0, -(-len(s) * p // 100) - 1)  # ceil(p/100 * n) - 1
    return s[int(k)], len(s) - int(k) - 1


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def timed_calls(seconds, min_calls, call):
    """Call call(i) until `seconds` have passed and at least min_calls ran."""
    start = time.perf_counter()
    i = 0
    while i < min_calls or time.perf_counter() - start < seconds:
        call(i)
        i += 1


def setup_cli(work, device_args):
    """One sabre_compile run on a 2-gate circuit for the workload's device:
    process start, device build and the cold distance matrix."""
    samples = []
    for _ in range(SETUP_REPEATS):
        wall, _, rc = run_child([os.path.abspath(COMPILE), "tiny.qasm", "-q"] + device_args, work)
        if rc != 0:
            fail("set-up compile failed")
        samples.append(wall)
    return samples


class Tally:
    """Compiles attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, n=1):
        self.attempted += n

    def failure(self, reason, n=1):
        self.failed += n
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def check_outputs(work, lines, tally):
    """Independent Sim.Tracker checks (perfbench/outcheck.ml) of the listed
    outputs; returns the routed depth of each, in order."""
    if not lines:
        return []
    with open(os.path.join(work, "checks.tsv"), "w") as f:
        f.write("".join("\t".join(line) + "\n" for line in lines))
    verdict = pb(["check", "checks.tsv"], work)
    for e in verdict["errors"]:
        tally.failure(f"check: {e}")
    return verdict["depths"]


def cli_metrics(calls, gates, compiles_per_call, swaps, depth, setup):
    walls = [c["wall"] for c in calls]
    p99, beyond = nearest_rank([w * 1e3 for w in walls], 99)
    metrics = {
        "setup_s": median(setup),
        "gates_per_s": median([g / c["wall"] for g, c in zip(gates, calls)]),
        "req_per_s": median([compiles_per_call / c["wall"] for c in calls]),
        "p50_ms": median(walls) * 1e3,
        "p99_ms": p99,
        "swaps": swaps,
        "depth": depth,
        "peak_rss_mb": max(c["rss_kb"] for c in calls) / 1024.0,
    }
    samples = {"setup_s": len(setup), "gates_per_s": len(calls), "req_per_s": len(calls),
               "p50_ms": len(calls), "p99_ms": len(calls), "p99_ms_beyond": beyond,
               "peak_rss_mb": len(calls)}
    return metrics, samples


# --- table2-batch ---------------------------------------------------------

def e2e_table2(work, inputs, seed, seconds, tally):
    setup = setup_cli(work, ["-d", "tokyo"])
    total_gates = sum(i["gates"] for i in inputs)
    calls, first_rows = [], None

    def call(i):
        nonlocal first_rows
        with open(os.path.join(work, "rows.jsonl"), "w") as out:
            wall, rss, rc = run_child(
                [os.path.abspath(COMPILE), "--batch", "manifest.txt", "-d", "tokyo",
                 "-j", "2", "--seed", str(seed)], work, stdout=out)
        calls.append({"wall": wall, "rss_kb": rss})
        tally.add(len(inputs))
        with open(os.path.join(work, "rows.jsonl")) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        if rc != 0 and not rows:
            tally.failure(f"batch call {i}: exit {rc}", len(inputs))
            return
        for r in rows:
            if r.get("status") != "ok":
                tally.failure(f"batch row {r.get('name')}: {r.get('message')}")
        if len(rows) != len(inputs):
            tally.failure(f"batch call {i}: {len(rows)} rows", abs(len(inputs) - len(rows)))
        same = [{k: v for k, v in r.items() if k != "time_s"} for r in rows]
        if first_rows is None:
            first_rows = same
        elif same != first_rows:
            tally.failure(f"batch call {i}: rows differ from the first call", len(inputs))

    timed_calls(seconds, MIN_CALLS, call)
    rows = first_rows or []
    swaps = sum(r.get("swaps", 0) for r in rows)
    depth = sum(r.get("depth", 0) for r in rows)
    metrics, samples = cli_metrics(calls, [total_gates] * len(calls), len(inputs), swaps,
                                   depth, setup)
    return metrics, samples, {"calls": len(calls)}


# --- grid400-cli ----------------------------------------------------------

def e2e_grid400(work, inputs, seconds, tally):
    device = ["-d", "grid", "--device-size", "400"]
    setup = setup_cli(work, device)
    calls, gates, first = [], [], {}

    def call(i):
        k = i % len(inputs)
        src = inputs[k]["path"]
        out = f"out_{k}.qasm"
        with open(os.path.join(work, "report.json"), "w") as f:
            wall, rss, rc = run_child([os.path.abspath(COMPILE), src] + device
                                      + ["-o", out, "--json"], work, stdout=f)
        calls.append({"wall": wall, "rss_kb": rss})
        gates.append(inputs[k]["gates"])
        tally.add()
        if rc != 0:
            tally.failure(f"{src}: exit {rc}")
            return
        with open(os.path.join(work, "report.json")) as f:
            # the JSON report is followed by a "wrote" line
            rep, _ = json.JSONDecoder().raw_decode(f.read())
        result = {"sha": sha256_file(os.path.join(work, out)),
                  "initial": rep["initial_mapping"], "final": rep["final_mapping"],
                  "swaps": rep["routed"]["swaps"], "depth": rep["routed"]["depth"]}
        if k not in first:
            first[k] = result
        elif result != first[k]:
            tally.failure(f"{src}: output differs from its first call")

    timed_calls(seconds, max(MIN_CALLS, len(inputs)), call)
    keys = sorted(first)
    lines = [["grid", "400", inputs[k]["path"], f"out_{k}.qasm",
              ",".join(map(str, first[k]["initial"])), ",".join(map(str, first[k]["final"]))]
             for k in keys]
    depths = check_outputs(work, lines, tally)
    for k, d in zip(keys, depths):
        if d != first[k]["depth"]:
            tally.failure(f"{inputs[k]['path']}: reported depth {first[k]['depth']}, checked {d}")
    swaps = sum(first[k]["swaps"] for k in keys)
    depth = sum(first[k]["depth"] for k in keys)
    metrics, samples = cli_metrics(calls, gates, 1, swaps, depth, setup)
    return metrics, samples, {"calls": len(calls), "circuits": len(inputs)}


# --- stream-1m ------------------------------------------------------------

def e2e_stream(work, inputs, seconds, tally):
    setup = setup_cli(work, ["-d", "tokyo"])
    src = inputs[0]["path"]
    calls, first = [], None

    def call(i):
        nonlocal first
        with open(os.path.join(work, "report.json"), "w") as f:
            wall, rss, rc = run_child([os.path.abspath(COMPILE), src, "-d", "tokyo", "--stream",
                                       "-o", "out.qasm", "--json"], work, stdout=f)
        calls.append({"wall": wall, "rss_kb": rss})
        tally.add()
        if rc != 0:
            tally.failure(f"stream call {i}: exit {rc}")
            return
        with open(os.path.join(work, "report.json")) as f:
            rep = json.load(f)
        result = {"sha": sha256_file(os.path.join(work, "out.qasm")), "swaps": rep["swaps"],
                  "heap_words": rep["peak_heap_words"]}
        if first is None:
            first = result
            # the output is checked once; later calls must repeat its bytes
            os.replace(os.path.join(work, "out.qasm"), os.path.join(work, "checked.qasm"))
        elif result["sha"] != first["sha"]:
            tally.failure(f"stream call {i}: output differs from the first call")

    timed_calls(seconds, MIN_CALLS, call)
    depth = 0
    if first is not None:
        # the stream output starts from the identity placement and reports
        # no final mapping
        depth = check_outputs(work, [["tokyo", "-", src, "checked.qasm", "-", "-"]], tally)[0]
    metrics, samples = cli_metrics(calls, [inputs[0]["gates"]] * len(calls), 1,
                                   first["swaps"] if first else 0, depth, setup)
    return metrics, samples, {"calls": len(calls),
                              "peak_heap_words": first["heap_words"] if first else None}


# --- serve-mix ------------------------------------------------------------

class Daemon:
    """A sabre_serve child on a Unix socket inside the work directory."""

    def __init__(self, work, sock):
        path = os.path.join(work, sock)
        if os.path.exists(path):
            os.unlink(path)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([os.path.abspath(SERVE), "--socket", sock, "--domains", "2"],
                                     cwd=work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on"):
                fail(f"sabre_serve did not start: {line!r}")
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(path)
                s.sendall(b'{"kind":"ping","id":"setup"}\n')
                reply = s.makefile("rb").readline()
            self.setup_s = time.perf_counter() - t0
            if b'"pong"' not in reply:
                fail(f"sabre_serve ping failed: {reply!r}")
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def e2e_serve(work, gen, seconds, tally):
    setup, daemons = [], []
    try:
        for _ in range(SETUP_REPEATS):
            d = Daemon(work, "s.sock")
            daemons.append(d)
            setup.append(d.setup_s)
            if len(setup) < SETUP_REPEATS:
                d.stop()
        load = pb(["load", "s.sock", "requests.ndjson", repr(float(seconds)), "2",
                   str(SERVE_FIRST), str(daemons[-1].proc.pid)], work)
    finally:
        for d in daemons:
            d.stop()
    tally.add(load["attempted"])
    for e in load["errors"]:
        tally.failure(e, 0)
    tally.failed += load["failed"]
    if load["attempted"] < SERVE_FIRST:
        tally.failure(f"only {load['attempted']} requests completed", 0)
    # A failed request misses any latency limit. Rates and p99 are taken
    # over consecutive blocks of SERVE_BLOCK completions (each p99 then has
    # 10 samples beyond it), and the median block is reported, so a burst
    # of load from outside the benchmark moves one block, not the result.
    lat = [x if x is not None else float("inf") for x in load["latencies_ms"]]
    done = sorted(range(len(lat)), key=lambda i: load["finish_s"][i])
    blocks, start = [], 0.0
    for k in range(SERVE_BLOCK, len(done) + 1, SERVE_BLOCK):
        block = done[k - SERVE_BLOCK:k]
        end = load["finish_s"][block[-1]]
        blocks.append({"req_per_s": len(block) / (end - start),
                       "gates_per_s": sum(load["gates_each"][i] for i in block) / (end - start),
                       "p99_ms": nearest_rank([lat[i] for i in block], 99)[0]})
        start = end
    if not blocks:
        fail(f"only {len(done)} serve-mix requests completed")
    metrics = {
        "setup_s": median(setup),
        "gates_per_s": median([b["gates_per_s"] for b in blocks]),
        "req_per_s": median([b["req_per_s"] for b in blocks]),
        "p50_ms": median(lat),
        "p99_ms": median([b["p99_ms"] for b in blocks]),
        "swaps": load["swaps"],
        "depth": load["depth"],
        "peak_rss_mb": load["vm_hwm_kb"] / 1024.0,
    }
    samples = {"setup_s": len(setup), "gates_per_s": len(blocks), "req_per_s": len(blocks),
               "p50_ms": len(lat), "p99_ms": len(blocks), "p99_ms_block": SERVE_BLOCK,
               "p99_ms_beyond": SERVE_BLOCK - int(-(-SERVE_BLOCK * 99 // 100)), "peak_rss_mb": 1}
    extra = {k: load[k] for k in ("compile_requests", "cache_hits", "cache_misses",
                                  "reply_digest", "first")}
    extra["requests"] = gen["inputs"]
    extra["cache_hit_ratio"] = load["cache_hits"] / max(1, load["compile_requests"])
    return metrics, samples, extra


# --- traced run -------------------------------------------------------------

def traced(workload, work, seed, tally):
    args = ["trace", workload, str(seed), ".", str(SERVE_TRACE_REQUESTS)]
    daemons = []
    try:
        if workload == "serve-mix":
            # two fresh daemons, so the untraced and the traced replay both
            # start from a cold compile cache
            for sock in ("a.sock", "b.sock"):
                daemons.append(Daemon(work, sock))
                args.append(sock)
        rep = pb(args, work)
    finally:
        for d in daemons:
            d.stop()
    tally.add(rep["attempted"])
    for e in rep["errors"]:
        tally.failure(e, 0)
    tally.failed += rep["failed"]
    if not rep["replays_agree"]:
        tally.failure("the traced and untraced replays disagree", 0)
    wall = rep["metrics"]["trace.wall_s"]
    extra = {"layers": rep["layers"], "unmeasured": rep["unmeasured"], "depth": rep["depth"],
             "wall_untraced_s": rep["wall_untraced_s"], "wall_traced_s": rep["wall_traced_s"],
             "domain_busy_s": rep["domain_busy_s"],
             "unaccounted_share": rep["metrics"]["trace.unaccounted_s"] / wall if wall else 0.0}
    return rep["metrics"], {"spans": sum(layer["calls"] for layer in rep["layers"])}, extra


# --- main -------------------------------------------------------------------

def source_digest():
    """Digest of the program's sources: the checkout need not be a git
    repository, so this stands beside the commit."""
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def command_output(args):
    try:
        out = subprocess.run(args, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def run_workload(workload, seed, seconds, trace, spec):
    """Generate the workload's inputs, measure, and print its two lines."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    work = os.path.join("perfbench", "_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    requests = max(2000, 400 * seconds)
    gen = pb(["gen", workload, str(seed), ".", str(requests)], work)
    inputs = gen["inputs"]

    tally = Tally()
    if trace:
        metrics, samples, extra = traced(workload, work, seed, tally)
    elif workload == "table2-batch":
        metrics, samples, extra = e2e_table2(work, inputs, seed, seconds, tally)
    elif workload == "grid400-cli":
        metrics, samples, extra = e2e_grid400(work, inputs, seconds, tally)
    elif workload == "stream-1m":
        metrics, samples, extra = e2e_stream(work, inputs, seconds, tally)
    else:
        metrics, samples, extra = e2e_serve(work, gen, seconds, tally)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {missing}")
    meta = {
        "commit": command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
        "source_digest": source_digest(),
        "host_cores": len(os.sched_getaffinity(0)),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]),
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
    }
    report = {"meta": meta, "samples": samples,
              "error_rate": tally.failed / max(1, tally.attempted),
              "failures": tally.reasons, "detail": extra}
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.exists("dune-project") and os.path.exists("bin/sabre_compile.ml")):
        fail("run from the root of the repository (dune-project and bin/ not found)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + BUILD, capture_output=True,
                           text=True, env=env)
    if build.returncode != 0:
        fail(f"build failed:\n{build.stderr[-2000:]}")
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(w, args.seed, args.seconds, args.trace, spec)


if __name__ == "__main__":
    main()
