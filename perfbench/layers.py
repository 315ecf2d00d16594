"""Per-layer accounting from the program's Chrome trace-event output.

`gofreec --trace FILE` records B/E spans for the compiler phases, the
build driver, goroutine run slices, GC cycles and daemon requests, plus
instant events for tcfree.  This module folds one trace into self times
per layer: a span's duration minus the part of it that child spans on
the same track cover.  A track is a (pid, tid) pair and, in the daemon,
the request the event belongs to (`args.req`): requests served at the
same time share goroutine and GC tids, and their spans must nest only
with their own.  (tcfree counts come from the metrics document,
not from the trace's instant events.)
"""

import json

# span name (or prefix ending in ':' / ' ') -> layer
_EXACT = {
    "lex": "frontend", "parse": "frontend", "typecheck": "frontend",
    "escape": "escape", "instrument": "instrument",
    "emit": "codegen", "lower": "codegen",
    "load": "build", "link": "build",
    "gc cycle": "gc", "gc cycle (par)": "gc",
    "mark": "gc_mark", "sweep": "gc_sweep",
    "rpc:queued": "rpc_queue",
}
_PREFIX = [
    # a build wave's own time: summary-store reads and writes, cache-hit
    # replay of inserted frees, domain fan-out
    ("wave ", "build"),
    ("build:", "escape"), ("walk:", "escape"), ("analyze:", "escape"),
    ("typecheck:", "frontend"), ("run g", "exec"), ("rpc:", "rpc_service"),
]

COMPILE_LAYERS = ("frontend", "escape", "instrument", "codegen", "build")
GC_LAYERS = ("gc", "gc_mark", "gc_sweep")


def attributed(self_ms):
    """The part of an operation's wall time its program spans account
    for: every layer's self time except the GC phases, which nest in
    execution, and "other" (spans no layer claims), which is left to
    unattributed time."""
    return sum(v for k, v in self_ms.items() if k not in GC_LAYERS and k != "other")


def layer_of(name):
    if name in _EXACT:
        return _EXACT[name]
    for prefix, layer in _PREFIX:
        if name.startswith(prefix):
            return layer
    return "other"


def fold(events):
    """Self time per layer in ms, the last timestamp and the end of the
    last compile-layer span (us)."""
    self_ms = {}
    stacks = {}
    last, compile_end = None, None
    timed = [e for e in events if "ts" in e and e.get("ph") != "M"]
    timed.sort(key=lambda e: e["ts"])
    for e in timed:
        ph, ts = e.get("ph"), e["ts"]
        last = ts if last is None else max(last, ts)
        track = (e.get("pid"), e.get("tid"), (e.get("args") or {}).get("req"))
        if ph == "B":
            stacks.setdefault(track, []).append([e.get("name", ""), ts, 0.0])
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                continue
            name, start, child = stack.pop()
            dur = ts - start
            layer = layer_of(name)
            self_ms[layer] = self_ms.get(layer, 0.0) + (dur - child) / 1000.0
            if stack:
                stack[-1][2] += dur
            if layer in COMPILE_LAYERS:
                compile_end = ts if compile_end is None else max(compile_end, ts)
        elif ph == "X":
            layer = layer_of(e.get("name", ""))
            self_ms[layer] = self_ms.get(layer, 0.0) + e.get("dur", 0.0) / 1000.0
    return self_ms, last, compile_end


def layers(path):
    """Self ms per layer of one trace file.  The parallel scheduler
    records no goroutine run slices; there, execution is the stretch of
    the trace after the last compile-layer span."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    self_ms, last, compile_end = fold(events)
    if "exec" not in self_ms and last is not None and compile_end is not None:
        self_ms["exec"] = max(0.0, (last - compile_end) / 1000.0)
    return self_ms
