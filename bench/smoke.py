#!/usr/bin/env python3
"""Smoke checks: the CLI and daemon contracts, the examples, the bench's
speed floors and the benchmark's determinism self-check.

    python3 bench/smoke.py

Run it from the root of the repository; it builds what it runs, then runs
every check even after one fails. Each check prints one PASS or FAIL line
and the script exits 1 if any failed. Logs, replies and reports go to
_build/smoke/. The perfbench self-check takes several minutes; the rest
well under one.
"""

import contextlib
import filecmp
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

OUT = "_build/smoke"
COMPILE = "_build/default/bin/sabre_compile.exe"
SERVE = "_build/default/bin/sabre_serve.exe"
FUZZ = "_build/default/bin/sabre_fuzz.exe"
BENCH = "_build/default/bench/main.exe"
EXAMPLES = ["quickstart", "qft_on_tokyo", "tradeoff_explorer", "device_survey",
            "noise_aware", "optimality_check"]
TARGETS = ["bin/sabre_compile.exe", "bin/sabre_serve.exe", "bin/sabre_fuzz.exe",
           "bench/main.exe"] + [f"examples/{e}.exe" for e in EXAMPLES]

QASM = ("OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[4];\n"
        "cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3]; "
        "cx q[0],q[3]; cx q[0],q[2];\n")
RACING_SPEC = "sabre/iso:trials=1,traversals=1,hail,hail/degree,hail/interaction"


def out(name):
    return os.path.join(OUT, name)


def run(args, log, code=0):
    """Run a command, keep its output in OUT/log, fail on an exit other
    than code."""
    p = subprocess.run(args, capture_output=True, text=True)
    with open(out(log), "w") as f:
        f.write(p.stdout + p.stderr)
    if p.returncode != code:
        last = (p.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise AssertionError(f"{' '.join(args)}: exit {p.returncode}: {last}")
    return p


def compile_json(args, log):
    return json.loads(run([COMPILE] + args + ["--json"], log).stdout)


# ---------------------------------------------------------------- CLI

def help_text():
    for exe in (COMPILE, SERVE, FUZZ):
        p = subprocess.run([exe, "--help=plain"], capture_output=True, text=True)
        assert "cmdliner error" not in p.stdout + p.stderr, f"{exe}: {p.stderr.strip()}"
    page = run([SERVE, "--help=plain"], "serve-help.txt").stdout
    assert "}\\n' | nc -U" in page, "sabre_serve example lost its \\n"


def list_routers():
    listing = run([COMPILE, "--list-routers"], "routers.txt").stdout
    assert "hail" in listing and "iso" in listing, listing


def list_seeders():
    listing = run([COMPILE, "--list-seeders"], "seeders.txt").stdout
    assert "iso" in listing and "reverse-traversal" in listing, listing


def portfolio_dominance():
    # sabre is a portfolio entry, so losing to it means the selector or a
    # member router is broken
    for w in ["qft_10", "ising_model_10", "4mod5-v1_22", "decod24-v2_43", "4gt13_92"]:
        plain = compile_json(["-w", w, "-r", "sabre"], f"plain-{w}.log")
        port = compile_json(["-w", w, "--portfolio", "sabre,hail,greedy"],
                            f"portfolio-{w}.log")
        ps, ws = plain["routed"]["swaps"], port["routed"]["swaps"]
        assert ws <= ps, (f"{w}: portfolio winner inserted {ws} swaps "
                          f"vs plain sabre {ps} — dominance broken")
        assert port["router"].split("/")[0] in ("sabre", "hail", "greedy"), \
            f"{w}: winner {port['router']!r} is not a portfolio member"


def racing_equivalence():
    # --portfolio-race on keeps the winner and its SWAP count, and may only
    # turn losing members into cancelled ones
    total_cancelled = 0
    for w in ["qft_10", "ising_model_10", "4mod5-v1_22"]:
        args = ["-w", w, "--portfolio", RACING_SPEC]
        off = compile_json(args, f"race-off-{w}.log")
        on = compile_json(args + ["--portfolio-race", "on"], f"race-on-{w}.log")
        assert on["portfolio"]["race"] and not off["portfolio"]["race"], \
            f"{w}: race flag not reported faithfully"
        assert off["router"] == on["router"], \
            f"{w}: racing changed the winner {off['router']!r} -> {on['router']!r}"
        assert off["routed"]["swaps"] == on["routed"]["swaps"], \
            f"{w}: racing changed the winner's swaps"
        off_m = {m["entry"]: m for m in off["portfolio"]["members"]}
        for m in on["portfolio"]["members"]:
            o = off_m[m["entry"]]
            if m.get("cancelled"):
                total_cancelled += 1
            elif "error" not in m and "error" not in o:
                assert m["swaps"] == o["swaps"], \
                    f"{w}/{m['entry']}: completing entry changed under racing"
    assert total_cancelled > 0, "pruning never fired across the corpus — racing is inert"
    return f"{total_cancelled} members cancelled"


def hail_words():
    # a count, so it holds on any host: HAIL's routing pass (5 trials, the
    # kept trial's circuit replayed from its log) allocates at most 100
    # minor words per logical gate through the real entry point (observed
    # ~11; the list-based router read 1,454 and 1,659)
    bound = 100
    readings = []
    for n in ("16", "20"):
        r = json.loads(run([COMPILE, "-w", "qft", "-n", n, "-d", "tokyo", "-r", "hail",
                            "--stats-json"], f"hail-words-{n}.log").stdout)
        words = next(p["minor_words"] for p in r["passes"] if p["name"] == "routing")
        per = words / r["logical"]["gates"]
        assert per <= bound, \
            f"qft {n}: {per:.1f} minor words per logical gate in hail's routing pass, above {bound}"
        readings.append(f"qft {n}: {per:.1f}")
    return "; ".join(readings) + " minor words per gate"


def batch_replay():
    # duplicated manifest rows come back byte-identical, and -j 2 gives the
    # rows of -j 1 (README: parallelism across circuits changes no routed
    # byte). Two more rows name paths holding a tab: a copy of a circuit
    # and a missing file. Both rows must still be JSON, ok and error; the
    # missing file makes the batch exit 1. --trace prints the engine's
    # pass lines on stderr and leaves the rows as they are.
    manifest = out("batch-manifest.txt")
    tab_copy, tab_missing = out("tab\tcopy.qasm"), out("tab\tmissing.qasm")
    shutil.copyfile("circuits/qpe_3bit.qasm", tab_copy)
    with open(manifest, "w") as f:
        f.write("circuits/cuccaro_adder_2bit.qasm\ncircuits/qpe_3bit.qasm\n" * 2
                + "circuits/cuccaro_adder_2bit.qasm\n"
                + f"{tab_copy}\n{tab_missing}\n")
    base = [COMPILE, "--batch", manifest, "-d", "tokyo"]
    seq = run(base + ["-j", "1"], "batch-j1.log", code=1)
    par = run(base + ["-j", "2"], "batch-j2.log", code=1)
    traced = run(base + ["-j", "1", "--trace"], "batch-trace.log", code=1)
    lines = seq.stdout.splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 7, rows
    assert all(r["status"] == "ok" for r in rows[:5]), rows
    assert (rows[5]["name"], rows[5]["status"]) == (tab_copy, "ok"), rows[5]
    assert (rows[6]["name"], rows[6]["status"]) == (tab_missing, "error"), rows[6]
    by_name = {}
    for line, row in zip(lines, rows):
        assert by_name.get(row["name"], line) == line, f"{row['name']}: duplicated rows diverged"
        by_name[row["name"]] = line

    def routed(stdout):
        # time_s is wall-clock, the one legitimately noisy key
        return [{k: v for k, v in json.loads(l).items() if k != "time_s"}
                for l in stdout.splitlines()]

    assert routed(seq.stdout) == routed(par.stdout), "-j 2 changed the batch output"
    assert any(l.startswith("[engine] pass routing:") for l in traced.stderr.splitlines()), \
        "--trace printed no [engine] pass routing: line under --batch"
    assert routed(seq.stdout) == routed(traced.stdout), "--trace changed the batch output"
    return next(l for l in par.stderr.splitlines() if l.startswith("batch:"))


# ---------------------------------------------------------------- daemon

class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(60)
        self.sock.connect(path)
        self.f = self.sock.makefile("rwb")

    def rpc(self, line):
        if isinstance(line, dict):
            line = json.dumps(line)
        self.f.write(line.encode() + b"\n")
        self.f.flush()
        return json.loads(self.f.readline())

    def close(self):
        self.f.close()
        self.sock.close()


@contextlib.contextmanager
def daemon(name, *flags):
    """Start sabre_serve on OUT/name.sock and wait for its readiness line."""
    sock, log = out(f"{name}.sock"), out(f"{name}.log")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(sock)
    with open(log, "w") as f:
        proc = subprocess.Popen([SERVE, "--socket", sock, "--domains", "2", *flags],
                                stdout=f, stderr=subprocess.STDOUT)
    try:
        for _ in range(100):
            with open(log) as f:
                if "listening on" in f.read():
                    break
            time.sleep(0.1)
        else:
            raise AssertionError(f"{name}: daemon never printed its listening line")
        yield proc, sock
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def stop(proc, sock):
    """SIGTERM must drain, exit 0 and unlink the socket."""
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
    assert code == 0, f"daemon exited {code} after SIGTERM"
    assert not os.path.exists(sock), "daemon left its socket behind"


def compile_req(rid, seed, **extra):
    req = {"kind": "compile", "id": rid, "qasm": QASM, "device": "tokyo",
           "router": "sabre", "seed": seed}
    req.update(extra)
    return req


def serve_protocol():
    # valid compiles, a malformed line, an oversized line (the 4096-byte cap
    # makes it cheap to trip), a pre-expired deadline, an unknown router and
    # a stats probe; the daemon's own counters must agree with what was sent
    with daemon("serve-protocol", "--max-request-bytes", "4096") as (proc, sock):
        c = Conn(sock)
        served = 0
        # identical requests must give identical bytes; the compile cache is
        # on (the default), so "b" and "e" are answered at admission
        first = c.rpc(compile_req("a", 7))
        assert first["kind"] == "ok", first
        assert first["swaps"] >= 0 and "OPENQASM" in first["qasm"], first
        served += 1
        again = c.rpc(compile_req("b", 7))
        assert again["kind"] == "ok", again
        assert again["qasm"] == first["qasm"], "non-deterministic reply"
        served += 1

        bad = c.rpc("this is not json")
        assert bad["kind"] == "error" and bad["error"] == "malformed", bad

        # the server drops the connection after an oversized frame
        big = c.rpc(compile_req("c", 7, qasm=QASM + "// " + "x" * 8000 + "\n"))
        assert big["kind"] == "error" and big["error"] == "oversized", big
        c.close()
        c = Conn(sock)

        # a pre-expired deadline times out without poisoning the pool
        late = c.rpc(compile_req("d", 7, deadline_s=0))
        assert late["kind"] == "error" and late["error"] == "timeout", late
        after = c.rpc(compile_req("e", 7))
        assert after["kind"] == "ok", after
        assert after["qasm"] == first["qasm"], "pool poisoned by timeout"
        served += 1

        # an unknown router gets its own typed error at admission and never
        # becomes a worker job
        unknown = c.rpc(compile_req("f", 7, router="astar-deluxe"))
        assert unknown["kind"] == "error" and unknown["error"] == "invalid", unknown

        # the bad-json line and the oversized frame both land in "malformed"
        stats = c.rpc({"kind": "stats", "id": "s"})
        c.close()
        with open(out("serve-protocol-stats.json"), "w") as f:
            json.dump(stats, f, indent=2)
        assert stats["kind"] == "stats", stats
        assert stats["served"] == served, (stats["served"], served)
        assert stats["malformed"] == 2, stats
        assert stats["timed_out"] == 1, stats
        assert stats["rejected"] == 0, stats
        assert stats["errored"] == 1, stats
        assert stats["domains"] == 2, stats
        # a request counts one hit or one miss (Compile_cache's counting
        # semantics): "b" and "e" hit at admission, the cold "a" misses once
        # and the pre-expired "d" never probes
        assert stats["cache_hits"] == 2, stats
        assert stats["cache_misses"] == 1, stats
        assert stats["cache_entries"] >= 1, stats
        assert stats["cache_bytes"] > 0, stats
        # every popped job counts, the timed-out pickup included, but
        # admission-time cache hits and the refused router never become jobs
        jobs = sum(d["jobs_run"] for d in stats["per_domain"])
        assert jobs == served + 1 - stats["cache_hits"], (jobs, served, stats)
        stop(proc, sock)


def serve_cache_replay():
    # one cold compile, then five byte-identical repeats answered from the
    # cache at admission; cache=false bypasses the cache, same bytes
    with daemon("serve-cache") as (proc, sock):
        c = Conn(sock)
        cold = c.rpc(compile_req("r0", 11))
        assert cold["kind"] == "ok", cold
        for i in range(1, 6):
            warm = c.rpc(compile_req(f"r{i}", 11))
            assert warm["kind"] == "ok", warm
            assert warm["qasm"] == cold["qasm"], f"r{i}: cached reply diverged from cold route"
        bypass = c.rpc(compile_req("nc", 11, cache=False))
        assert bypass["kind"] == "ok", bypass
        assert bypass["qasm"] == cold["qasm"], "cache=false reply diverged from cached route"

        stats = c.rpc({"kind": "stats", "id": "s"})
        c.close()
        with open(out("serve-cache-stats.json"), "w") as f:
            json.dump(stats, f, indent=2)
        assert stats["served"] == 7, stats
        # the cold compile misses once, the cache=false request never probes
        assert stats["cache_hits"] == 5, stats
        assert stats["cache_misses"] == 1, stats
        assert stats["cache_entries"] >= 1, stats
        assert stats["cache_bytes"] > 0, stats
        # only the cold route and the bypass route reached a worker
        jobs = sum(d["jobs_run"] for d in stats["per_domain"])
        assert jobs == 2, (jobs, stats)
        stop(proc, sock)


# ---------------------------------------------------------------- streaming

def stream_memory():
    # each file is routed in a fresh process, so peak_heap_words is the
    # process's. Resident state must track the qubit-inactivity span, not
    # the gate count: a fixed ceiling (observed ~252k words at 1M gates;
    # 6M words = ~46 MiB leaves 20x headroom) and a flat 250k -> 1M ratio.
    # Allocation must stay with the gates routed: at most 20 minor words
    # per input gate over both passes of the 1M-gate run (observed ~9.5).
    # The output paths hold a tab, which the JSON report must escape.
    # The 250k run is repeated under --trace, which must print both stream
    # steps and leave the routed bytes as they were.
    ceiling_words = 6_000_000
    words_per_gate = 20
    reports = {}
    traced = out("routed\ttraced.qasm")
    try:
        for name, gates in (("250k", 250_000), ("1m", 1_000_000)):
            src, dst = out(f"chain_{name}.qasm"), out(f"routed\t{name}.qasm")
            run([COMPILE, "--gen-stream", src, "-n", "16", "--gates", str(gates),
                 "--seed", "7", "-q"], f"gen-{name}.log")
            r = compile_json([src, "--stream", "-o", dst], f"stream-{name}.log")
            if name == "250k":
                p = run([COMPILE, src, "--stream", "-o", traced, "--trace", "-q"],
                        "stream-250k-trace.log")
                for step in ("survey", "route"):
                    assert f"[engine] pass {step}: done in" in p.stderr, \
                        f"--stream --trace printed no '{step}' step"
                assert filecmp.cmp(dst, traced, shallow=False), \
                    "--stream --trace changed the routed output"
            assert r["output"] == dst, f"{name}: report names {r['output']!r}, not {dst!r}"
            assert r["gates_in"] == gates, f"{name}: expected {gates} gates, routed {r['gates_in']}"
            assert r["gates_out"] in (r["gates_in"] + 3 * r["swaps"], r["gates_in"] + r["swaps"]), \
                f"{name}: gate accounting broken"
            assert r["peak_heap_words"] <= ceiling_words, \
                (f"{name}: peak heap {r['peak_heap_words']} words above the "
                 f"{ceiling_words} ceiling — streaming memory no longer window-bounded")
            reports[name] = r
    finally:
        for name in ("250k", "1m"):
            for path in (out(f"chain_{name}.qasm"), out(f"routed\t{name}.qasm")):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(traced)
    small, large = reports["250k"]["peak_heap_words"], reports["1m"]["peak_heap_words"]
    ratio = large / small
    assert ratio <= 1.5, \
        f"peak heap grew {ratio:.2f}x on a 4x longer stream — memory is scaling with gate count"
    per_gate = reports["1m"]["minor_words"] / reports["1m"]["gates_in"]
    assert per_gate <= words_per_gate, \
        (f"1m: {per_gate:.1f} minor words per input gate, above {words_per_gate} — "
         f"the stream path allocates per gate beyond the gates it routes")
    return (f"peak heap {small} -> {large} words, ratio {ratio:.2f}; "
            f"{per_gate:.1f} minor words per gate")


# ---------------------------------------------------------------- examples

def examples():
    # each example checks its own routes and exits non-zero on a failure
    for e in EXAMPLES:
        run([f"_build/default/examples/{e}.exe"], f"example-{e}.log")
    return f"{len(EXAMPLES)} examples"


# ---------------------------------------------------------------- bench

def bench(section, *flags):
    """One bench section in its own process; report its floor readings."""
    def check():
        p = run([BENCH, *flags, "--repeat", "3", section], f"bench-{section}.txt")
        return "; ".join(l[len("floor "):] for l in p.stdout.splitlines()
                         if l.startswith("floor "))
    return check


def perfbench_selftest():
    run(["python3", "perfbench/selftest.py"], "perfbench-selftest.log")


CHECKS = [
    ("help-text", help_text),
    ("list-routers", list_routers),
    ("list-seeders", list_seeders),
    ("portfolio-dominance", portfolio_dominance),
    ("racing-equivalence", racing_equivalence),
    ("hail-words", hail_words),
    ("batch-replay", batch_replay),
    ("serve-protocol", serve_protocol),
    ("serve-cache-replay", serve_cache_replay),
    ("stream-memory", stream_memory),
    ("examples", examples),
    ("bench-scaling", bench("scaling", "--max-qubits", "56")),
    ("floor-scoring", bench("scoring")),
    ("floor-throughput", bench("throughput")),
    ("floor-racing", bench("racing")),
    ("floor-cache", bench("cache")),
    ("perfbench-selftest", perfbench_selftest),
]


def main():
    if len(sys.argv) > 1:
        sys.exit("usage: python3 bench/smoke.py (no arguments)")
    if not os.path.exists("dune-project"):
        sys.exit("smoke: run from the root of the repository")
    os.makedirs(OUT, exist_ok=True)
    build = subprocess.run(["dune", "build"] + TARGETS, capture_output=True, text=True)
    if build.returncode != 0:
        sys.exit(f"smoke: build failed\n{build.stderr[-2000:]}")
    failed = []
    t_all = time.time()
    for name, check in CHECKS:
        t0 = time.time()
        try:
            detail = check()
            verdict = "PASS"
        except Exception as e:  # an assertion, a timeout or a missing file
            detail = f"{type(e).__name__}: {e}".replace("\n", " ")[:400]
            verdict = "FAIL"
            failed.append(name)
        note = f": {detail}" if detail else ""
        print(f"{verdict} {name} ({time.time() - t0:.1f} s){note}", flush=True)
    print(f"smoke: {len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed in "
          f"{time.time() - t_all:.0f} s; logs in {OUT}/")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
