#!/usr/bin/env python3
"""End-to-end benchmark of the GoFree reproduction (`gofreec`).

Run from the root of a checkout:

    python3 perfbench/run.py --workload proxies --seed 1 --seconds 10 --trace 0

It builds `gofreec` with dune, generates the workload's inputs from
--seed, drives the program for --seconds in a closed loop, checks every
output against an oracle, and prints one JSON line as the last line of
stdout.  --trace 0 reports the end-to-end metrics; --trace 1 runs the
same loop with the program's tracing on and reports per-layer metrics.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "bin", "gofreec.exe")
WORK_ROOT = ".perfbench-work"
RPC = "gofree-rpc-v2"
PROXIES = ["gocompiler", "hugo", "badger", "json", "scheck", "slayout"]
TRIVIAL = 'func main() {\n  println("ready")\n}\n'
# One domain.  At two, the medians of four batches of runs on a shared
# 2-core host ranged over 18%: a stall on either core delays both domains
# at every stop-the-world handshake, which the host-speed reference does
# not capture.  That is too close to the 25% bound on op_ms.
FANOUT_DOMAINS = 1
DAEMON_WORKERS = 2
# The daemon's traffic is the repo's own load model: the closed loop of
# lib/load/harness.ml at its default 4 clients, each sending its next
# request as soon as the last is answered, with the request kinds drawn
# by Mix.default of lib/load/mix.ml (analyze 4, run 2, explain 1,
# stats 1; build 0).
DAEMON_CLIENTS = 4
DAEMON_MIX = (("analyze", 4), ("run", 2), ("explain", 1), ("stats", 1))
DAEMON_SETUPS = 7  # daemons started, primed and timed; the last one serves the load
DAEMON_FRESH = 1  # cache-missing requests per client per half-second slice

# Host speed.  On a shared host the same operation can run 2x slower for
# minutes while other tenants are busy.  A fixed OCaml program that never
# touches gofreec's code (hostref.ml, run as its own process like a
# gofreec run) slows down with it.  It runs after every measured
# operation, set-up step or daemon load slice, and each time is scaled
# by REF_MS / (the reference's time right after it): times read as on a
# host where the reference takes REF_MS, and a change in the program
# still shows in full.
REF_ROUNDS = "40"
REF_MS = 10.0
REF_EXE = None  # set by build_ref()
REF_SAMPLES = []  # the reference's times (ms) during this run

LIVE = []  # child processes not yet reaped


def sample_host():
    t0 = time.perf_counter()
    r = subprocess.run([REF_EXE, REF_ROUNDS], stdout=subprocess.DEVNULL)
    REF_SAMPLES.append((time.perf_counter() - t0) * 1000.0)
    if r.returncode != 0:
        die(f"host reference exited {r.returncode}", 4)


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "gofreec.ml"))):
        die("run from the root of a GoFree checkout "
            "(dune-project and bin/gofreec.ml not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./bin/gofreec.exe"],
                           env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        die("dune not found on PATH")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("dune build failed", 3)


def build_ref(work):
    """Compile the host-speed reference into [work]."""
    global REF_EXE
    src = os.path.join(work, "hostref.ml")
    shutil.copy(os.path.join(HERE, "hostref.ml"), src)
    REF_EXE = os.path.join(work, "hostref.exe")
    try:
        r = subprocess.run(["ocamlopt", src, "-o", REF_EXE], stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        die("ocamlopt not found on PATH")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("compiling the host reference failed", 3)


# ------------------------------------------------------------------ #
# Processes                                                           #
# ------------------------------------------------------------------ #

def reap(p, timeout=None):
    """Wait for [p]; returns (exit code, its peak RSS in KiB).  Kills it
    past [timeout] seconds."""
    watchdog = None
    if timeout is not None:
        watchdog = threading.Timer(timeout, p.kill)
        watchdog.start()
    _, status, ru = os.wait4(p.pid, 0)
    if watchdog:
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p in LIVE:
        LIVE.remove(p)
    return p.returncode, ru.ru_maxrss


def spawn(args, out_path, err_path):
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        p = subprocess.Popen([EXE] + args, stdout=out, stderr=err)
    LIVE.append(p)
    return p


class Run:
    def __init__(self, code, out, err, wall_s, rss_kb):
        self.code, self.out, self.err = code, out, err
        self.wall_s, self.rss_kb = wall_s, rss_kb


def gofreec(work, args, timeout=120):
    """One timed gofreec process; stdout/stderr go through files so
    wait4 reports this child's own peak RSS."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    t0 = time.perf_counter()
    p = spawn(args, out_path, err_path)
    code, rss = reap(p, timeout)
    wall = time.perf_counter() - t0
    with open(out_path) as f:
        out = f.read()
    with open(err_path) as f:
        err = f.read()
    return Run(code, out, err, wall, rss)


def write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


# ------------------------------------------------------------------ #
# Bookkeeping                                                         #
# ------------------------------------------------------------------ #

class Tally:
    """Operations attempted and failed, latencies by program, per-layer
    sums."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.checks_ok = True
        self.lat_ms = {}  # program -> [(latency, index of the next host sample)]
        self.summary = statistics.median  # of one program's latencies
        self.rss_kb = 0
        self.layer_ms = {}
        self.counts = {}
        self.cache = [0, 0]  # hits, lookups

    def op(self, ok, lat_ms, why="", program=""):
        """One operation; [lat_ms] is None when it never completed."""
        with self.lock:
            self.attempted += 1
            if lat_ms is not None:
                self.lat_ms.setdefault(program, []).append((lat_ms, len(REF_SAMPLES)))
            if not ok:
                self.failed += 1
                if self.failed <= 3:
                    print(f"perfbench: operation failed: {why}", file=sys.stderr)

    def check(self, ok, why):
        if not ok:
            self.checks_ok = False
            print(f"perfbench: check failed: {why}", file=sys.stderr)

    def add_layers(self, self_ms):
        with self.lock:
            for k, v in self_ms.items():
                self.layer_ms[k] = self.layer_ms.get(k, 0.0) + v

    def add_metrics(self, m, count=True):
        """Check one gofree-metrics-v1 document's accounting and, if
        [count], add its counters to the per-layer sums."""
        giveups = sum(m["giveups"].values())
        tcfreed = sum(m["tcfreed_objects"].values())
        self.check(m["tcfree_calls"] == m["tcfree_success"] + giveups,
                   "tcfree calls != successes + give-ups")
        self.check(m["tcfree_success"] == tcfreed, "tcfree successes != tcfreed objects")
        self.check(m["poison_reads"] == 0, "a freed object was read")
        # the metrics document has no live-object count, so conservation
        # (allocs = tcfreed + GC-freed + live) can only be checked as a bound
        allocs = sum(m["heap_allocs"].values())
        freed = tcfreed + sum(m["gc_freed_objects"].values())
        self.check(freed <= allocs, "more heap objects freed than allocated")
        if not count:
            return
        with self.lock:
            for k, v in (("alloc_bytes", m["alloced_bytes"]),
                         ("freed_bytes", m["freed_bytes"]),
                         ("gc_cycles", m["gc_cycles"]),
                         ("tcfree_calls", m["tcfree_calls"]),
                         ("tcfree_success", m["tcfree_success"]),
                         ("tcfree_giveups", giveups),
                         ("giveup_gc", m["giveups"].get("gc_running", 0)),
                         ("giveup_ownership", m["giveups"].get("ownership_changed", 0))):
                self.counts[k] = self.counts.get(k, 0) + v


def read_json(path):
    with open(path) as f:
        return json.load(f)


def host_scaled(timed):
    """[(time, i)] -> each time scaled by REF_MS / host sample i, the
    sample taken right after it."""
    return [x * REF_MS / REF_SAMPLES[i] for x, i in timed]


def end_to_end(t, setups):
    """Latencies are scaled to the reference host speed one by one,
    summarised per program by [t.summary] (the median, or for the daemon
    the mean), then averaged over the programs with the geometric
    mean."""
    print(f"perfbench: host reference median {statistics.median(REF_SAMPLES):.3f} ms "
          f"(scaled to {REF_MS} ms; {len(REF_SAMPLES)} samples)", file=sys.stderr)
    summaries = []
    for name, timed in sorted(t.lat_ms.items()):
        summaries.append(t.summary(host_scaled(timed)))
        print(f"perfbench: {name or 'op'}: {t.summary.__name__} {summaries[-1]:.3f} ms "
              f"over {len(timed)} samples", file=sys.stderr)
    return {
        "op_ms": (statistics.geometric_mean(summaries), "ms"),
        "peak_rss_mb": (t.rss_kb / 1024.0, "MiB"),
        "setup_s": (statistics.median(host_scaled(setups)), "s"),
    }


def per_layer(t):
    n = max(1, t.attempted)
    ms = t.layer_ms
    gc = ms.get("gc", 0.0) + ms.get("gc_mark", 0.0) + ms.get("gc_sweep", 0.0)
    c = t.counts
    out = {
        "frontend_ms": ms.get("frontend", 0.0) / n,
        "escape_ms": ms.get("escape", 0.0) / n,
        "instrument_ms": ms.get("instrument", 0.0) / n,
        "codegen_ms": ms.get("codegen", 0.0) / n,
        "build_driver_ms": ms.get("build", 0.0) / n,
        "mutator_ms": max(0.0, ms.get("exec", 0.0) - gc) / n,
        "gc_ms": gc / n,
        "gc_mark_ms": ms.get("gc_mark", 0.0) / n,
        "gc_sweep_ms": ms.get("gc_sweep", 0.0) / n,
        "rpc_queue_ms": ms.get("rpc_queue", 0.0) / n,
        # request handlers run the program on their own domain, but its
        # run slices sit on goroutine tracks, outside the handler's span
        "rpc_dispatch_ms": max(0.0, ms.get("rpc_service", 0.0) - ms.get("exec", 0.0)) / n,
        "unattributed_ms": ms.get("unattributed", 0.0) / n,
    }
    units = {k: (v, "ms") for k, v in out.items()}
    calls = c.get("tcfree_calls", 0)
    units.update({
        "gc_cycles": (c.get("gc_cycles", 0) / n, "count"),
        "alloc_kb": (c.get("alloc_bytes", 0) / 1024.0 / n, "KiB"),
        "free_ratio": (c.get("freed_bytes", 0) / max(1, c.get("alloc_bytes", 0)), "ratio"),
        "tcfree_calls": (calls / n, "count"),
        "tcfree_giveups": (c.get("tcfree_giveups", 0) / n, "count"),
        "tcfree_giveup_gc": (c.get("giveup_gc", 0) / n, "count"),
        "tcfree_giveup_ownership": (c.get("giveup_ownership", 0) / n, "count"),
        "tcfree_success_ratio": (c.get("tcfree_success", 0) / max(1, calls), "ratio"),
        "cache_hit_ratio": (t.cache[0] / max(1, t.cache[1]), "ratio"),
    })
    return units


# ------------------------------------------------------------------ #
# One CLI operation, optionally traced                                #
# ------------------------------------------------------------------ #

def cli_op(t, work, args, traced, check, stats_json=False, program=""):
    """Run gofreec [args] once as a measured operation; [check] maps the
    Run to None (ok) or a failure reason."""
    extra = []
    tf, mf, sf = (os.path.join(work, n) for n in ("trace.json", "metrics.json", "stats.json"))
    if traced:
        extra = ["--trace", tf, "--metrics-json", mf]
        if stats_json:
            extra += ["--stats-json", sf]
    r = gofreec(work, args + extra)
    t.rss_kb = max(t.rss_kb, r.rss_kb)
    why = f"exit {r.code}: {r.err.strip()[:200]}" if r.code != 0 else check(r)
    t.op(why is None, r.wall_s * 1000.0, why, program)
    if traced and r.code == 0:
        self_ms = layers.layers(tf)
        self_ms["unattributed"] = max(0.0, r.wall_s * 1000.0 - layers.attributed(self_ms))
        t.add_layers(self_ms)
        t.add_metrics(read_json(mf)["metrics"])
        if stats_json:
            s = read_json(sf)
            with t.lock:
                t.cache[0] += s["cache_hits"]
                t.cache[1] += s["cache_hits"] + s["cache_misses"]


def expect_output(expected):
    return lambda r: None if r.out == expected else "output differs from the oracle"


def startup_times(work, args, reps=51):
    """Process start-up: wall time of a one-line program, [reps] times."""
    path = os.path.join(work, "trivial.go")
    write(path, TRIVIAL)
    times = []
    for _ in range(reps):
        r = gofreec(work, ["run", path] + args)
        if r.code != 0 or r.out != "ready\n":
            die(f"trivial program failed: {r.err.strip()[:200]}", 4)
        add_setup(times, r.wall_s)
    return times


def add_setup(setups, seconds):
    """Record one set-up time with the host sample taken right after it."""
    setups.append((seconds, len(REF_SAMPLES)))
    sample_host()


def verify_run(t, work, args, check):
    """Untimed: one --poison run with metrics; a wrong free shows as a
    poison read, a changed output or broken accounting."""
    mf = os.path.join(work, "verify.json")
    r = gofreec(work, args + ["--poison", "--metrics-json", mf])
    t.check(r.code == 0, f"poison run exited {r.code}: {r.err.strip()[:200]}")
    if r.code == 0:
        t.check(check(r) is None, "poison run output differs from the oracle")
        t.add_metrics(read_json(mf)["metrics"], count=False)


def loop(seconds, op):
    """Run [op] for [seconds] of operation time, sampling the host's
    speed after each operation."""
    t0 = time.perf_counter()
    sampling = 0.0
    while time.perf_counter() - t0 - sampling < seconds:
        op()
        now = time.perf_counter()
        sample_host()
        sampling += time.perf_counter() - now


# ------------------------------------------------------------------ #
# Workloads                                                           #
# ------------------------------------------------------------------ #

def wl_proxies(work, rng, seconds, traced, go):
    """The six Table-6 proxies, one `gofreec run` per operation."""
    preset = ["--go"] if go else []
    rand_seed = str(rng.randrange(1, 1 << 30))
    paths = {}
    expected = {}
    for name in PROXIES:
        paths[name] = os.path.join(work, name + ".go")
        with open(os.path.join(HERE, "programs", name + ".go")) as f:
            write(paths[name], f.read())
        # oracle: the reference tree-walker without inserted frees
        r = gofreec(work, ["run", paths[name], "--go", "--engine", "reference",
                           "--seed", rand_seed])
        if r.code != 0:
            die(f"oracle run of {name} failed: {r.err.strip()[:200]}", 4)
        expected[name] = r.out
    setups = startup_times(work, preset)
    t = Tally()
    order = []

    def op():
        if not order:
            order.extend(rng.sample(PROXIES, len(PROXIES)))
        name = order.pop()
        cli_op(t, work, ["run", paths[name], "--seed", rand_seed] + preset,
               traced, expect_output(expected[name]), program=name)

    loop(seconds, op)
    if not go:
        for name in PROXIES:
            verify_run(t, work, ["run", paths[name], "--seed", rand_seed],
                       expect_output(expected[name]))
    return t, setups


def wl_fanout(work, rng, seconds, traced):
    """Goroutine fan-out on the work-stealing domain scheduler."""
    path = os.path.join(work, "fanout.go")
    shutil.copy(os.path.join(HERE, "programs", "fanout.go"), path)
    # oracle as for the proxies; goroutines may print in any order
    r = gofreec(work, ["run", path, "--go", "--engine", "reference"])
    if r.code != 0:
        die(f"oracle run of fanout failed: {r.err.strip()[:200]}", 4)
    expected = sorted(r.out.splitlines())
    dom = ["--domains", str(FANOUT_DOMAINS)]
    setups = startup_times(work, dom)

    def check(r):
        return None if sorted(r.out.splitlines()) == expected else "fanout output differs"

    t = Tally()
    loop(seconds, lambda: cli_op(t, work, ["run", path] + dom, traced, check))
    verify_run(t, work, ["run", path] + dom, check)
    return t, setups


def wl_build(work, rng, seconds, traced):
    """Edit one package of a generated tree, rebuild, run the result."""
    tree = gen.Tree(rng.randrange(1 << 30))
    root = os.path.join(work, "tree")
    for rel, text in tree.files().items():
        write(os.path.join(root, rel), text)
    cache = os.path.join(work, "cache")
    setups = []
    for k in range(7):
        # cold builds, each into an empty summary store
        r = gofreec(work, ["build", root, "--run", "--cache-dir", f"{cache}{k}"])
        if r.code != 0 or r.out != tree.expected:
            die(f"cold build failed: {r.err.strip()[:200]}", 4)
        add_setup(setups, r.wall_s)
    t = Tally()

    def op():
        for rel, text in tree.edit().items():
            write(os.path.join(root, rel), text)
        cli_op(t, work, ["build", root, "--run", "--cache-dir", cache + "0"],
               traced, expect_output(tree.expected), stats_json=True)

    loop(seconds, op)
    verify_run(t, work, ["build", root, "--run", "--cache-dir", cache + "0"],
               expect_output(tree.expected))
    return t, setups


class Conn:
    """One newline-delimited JSON connection to the daemon."""

    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.connect(path)
        self.buf = b""

    def call(self, method, params=None):
        req = {"schema": RPC, "method": method}
        if params:
            req["params"] = params
        self.s.sendall((json.dumps(req) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.s.recv(1 << 16)
            if not chunk:
                raise EOFError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.s.close()


def start_daemon(work, k, hot, trace_path=None):
    """Start `gofreec serve` and prime its resident cache with the [hot]
    programs; returns (process, socket path, seconds from spawn until
    the last priming request was answered)."""
    sock = os.path.join(work, f"d{k}.sock")
    args = ["serve", "--socket", sock, "--workers", str(DAEMON_WORKERS)]
    if trace_path:
        args += ["--trace", trace_path]
    t0 = time.perf_counter()
    p = spawn(args, os.path.join(work, f"serve{k}.out"), os.path.join(work, f"serve{k}.err"))
    while True:
        if p.poll() is not None:
            die(f"daemon exited with {p.returncode} before it was ready", 4)
        try:
            c = Conn(sock)
            break
        except OSError:
            pass
        if time.perf_counter() - t0 > 60:
            die("daemon did not become ready within 60 s", 4)
        time.sleep(0.001)
    for src, _ in hot:
        resp = c.call("analyze", {"source": src})
        if not resp.get("ok"):
            die(f"priming request failed: {resp.get('error')}", 4)
    ready = time.perf_counter() - t0
    c.close()
    return p, sock, ready


def stop_daemon(p, sock):
    c = Conn(sock)
    c.call("shutdown")
    c.close()
    code, rss = reap(p, timeout=60)
    return code, rss


def wl_daemon(work, rng, seconds, traced):
    """Closed loop: DAEMON_CLIENTS connections, each sending its next
    request, of a kind drawn from DAEMON_MIX, when the last one is
    answered.  Set-up
    primes the resident cache with the 8 generated programs, so requests
    for them hit.  The load runs in half-second slices; between slices
    the daemon is idle and the host's speed is sampled.  Each client's
    first DAEMON_FRESH requests in a slice are analyze requests for a
    program under a fresh trailing comment, which miss the cache and
    compile it again.  Misses, and so the cache's growth, therefore
    follow the run's length, not the host's speed."""
    # a client thread whose response has arrived takes the interpreter
    # lock within 0.2 ms, not Python's default 5 ms
    sys.setswitchinterval(0.0002)
    base = rng.randrange(1 << 30)
    hot = [gen.program(base + i) for i in range(8)]
    setups = []
    trace_path = os.path.join(work, "serve.trace.json") if traced else None
    for k in range(DAEMON_SETUPS):
        last = k == DAEMON_SETUPS - 1
        p, sock, ready = start_daemon(work, k, hot, trace_path if last else None)
        add_setup(setups, ready)
        if not last:
            stop_daemon(p, sock)
    t = Tally()
    # With more clients than workers, a request either finds a worker
    # free or waits behind another request, so a kind's latencies are
    # bimodal and their median jumps between the modes from run to run.
    # Their mean moves smoothly with the share of each.
    t.summary = statistics.fmean
    first = {}  # (method, program) -> result the daemon gave first
    try:
        rngs = [random.Random(f"{base}/{c}") for c in range(DAEMON_CLIENTS)]
        conns = [Conn(sock) for _ in range(DAEMON_CLIENTS)]
        slices = 0

        def client(c, crng, conn, until):
            sent = 0
            while time.perf_counter() < until:
                i = crng.randrange(len(hot))
                src, expected = hot[i]
                if sent < DAEMON_FRESH:
                    src += f"// slice {slices} client {c} request {sent}\n"
                    method = "analyze"
                else:
                    method = crng.choices(*zip(*DAEMON_MIX))[0]
                sent += 1
                params = None if method == "stats" else {"source": src}
                s = time.perf_counter()
                try:
                    resp = conn.call(method, params)
                except (OSError, EOFError, ValueError) as e:
                    t.op(False, None, f"{method}: {e}")
                    break
                lat = (time.perf_counter() - s) * 1000.0
                ok, why = daemon_check(t, first, method, i, expected, resp)
                # latencies are summarised per request kind: method and,
                # for compiling ones, whether the resident cache answered
                kind = method
                if method != "stats":
                    hit = resp.get("result", {}).get("cached")
                    kind += "/hit" if hit else "/miss"
                t.op(ok, lat, why, kind)

        elapsed = 0.0
        while elapsed < seconds:
            t0 = time.perf_counter()
            threads = [threading.Thread(target=client, args=(k, r, c, t0 + 0.5))
                       for k, (r, c) in enumerate(zip(rngs, conns))]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            elapsed += time.perf_counter() - t0
            slices += 1
            sample_host()
        for c in conns:
            c.close()
        c = Conn(sock)
        stats = c.call("stats")["result"]
        c.close()
        t.cache = [stats["cache"]["hits"], stats["cache"]["hits"] + stats["cache"]["misses"]]
    finally:
        code, rss = stop_daemon(p, sock)
    t.rss_kb = rss
    t.check(code == 0, f"daemon exited with {code}")
    if traced:
        self_ms = layers.layers(trace_path)
        served = layers.attributed(self_ms) - self_ms.get("exec", 0.0)
        total = sum(x for timed in t.lat_ms.values() for x, _ in timed)
        self_ms["unattributed"] = max(0.0, total - served)
        t.add_layers(self_ms)
    return t, setups


def daemon_check(t, first, method, i, expected, resp):
    """(ok, reason) for one response; run results must match the
    generator's output, analyze/explain results must not depend on
    whether the daemon's cache answered."""
    if not resp.get("ok"):
        return False, f"{method}: {resp.get('error')}"
    if method == "stats":
        return "cache" in resp["result"], "stats result has no cache section"
    res = dict(resp["result"])
    res.pop("cached", None)
    if method == "run":
        if res["output"] != expected:
            return False, "run output differs from the generator's"
        t.add_metrics(res["metrics"]["metrics"])
        return True, ""
    with t.lock:
        seen = first.setdefault((method, i), res)
    return (seen == res), f"{method} result changed between requests"


WORKLOADS = {
    "proxies": lambda w, r, s, tr: wl_proxies(w, r, s, tr, go=False),
    "proxies-go": lambda w, r, s, tr: wl_proxies(w, r, s, tr, go=True),
    "build": wl_build,
    "daemon": wl_daemon,
    "fanout": wl_fanout,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    work = os.path.join(WORK_ROOT, f"{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        build_ref(work)
        rng = random.Random(f"{a.workload}/{a.seed}")
        t, setups = WORKLOADS[a.workload](work, rng, a.seconds, a.trace == 1)
    finally:
        for p in list(LIVE):
            p.kill()
            reap(p)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    metrics = per_layer(t) if a.trace else end_to_end(t, setups)
    for k, (v, u) in metrics.items():
        print(f"{k:22s} {v:14.6f} {u}", file=sys.stderr)
    print(json.dumps({
        "correct": t.failed == 0 and t.checks_ok and t.attempted > 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
