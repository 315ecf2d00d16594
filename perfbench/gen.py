"""Seeded MiniGo program generator with independently computed outputs.

Every generated function has one of a few allocation shapes (a heap
slice filled and summed, a map histogram, a factory whose result the
caller drops, an append loop, short-lived struct pointers, a slice that
escapes into a global) and returns an int.  This module computes the
value each function returns in plain Python, so a benchmark can check a
compiled program's output without trusting the compiler under test.

All arithmetic stays small and non-negative, so Go's 64-bit ints, the
interpreter's native ints and Python's ints agree.
"""

import random

MOD = 1000003


class Func:
    """One generated function: MiniGo text plus a Python evaluator."""

    def __init__(self, name, lines, value, globals_=(), types=()):
        self.name = name
        self.lines = lines
        self.value = value  # n -> int
        self.globals = list(globals_)
        self.types = list(types)


def _slice_sum(name, rng):
    a, b, c, m = rng.randint(1, 9), rng.randint(1, 13), rng.randint(0, 7), rng.randint(50, 997)
    lines = [
        f"func {name}(n int) int {{",
        f"  xs := make([]int, n+{a})",
        "  for i := range xs {",
        f"    xs[i] = (i*{b} + {c}) % {m}",
        "  }",
        "  s := 0",
        "  for i := range xs {",
        "    s = s + xs[i]",
        "  }",
        "  return s",
        "}",
    ]
    return Func(name, lines, lambda n: sum((i * b + c) % m for i in range(n + a)))


def _map_hist(name, rng):
    k = rng.randint(3, 17)
    a = k + rng.randint(0, 5)
    probe = rng.randint(0, k - 1)
    lines = [
        f"func {name}(n int) int {{",
        "  m := make(map[int]int)",
        f"  for i := 0; i < n+{a}; i++ {{",
        f"    m[i%{k}] = m[i%{k}] + i",
        "  }",
        f"  return len(m) + m[{probe}]",
        "}",
    ]

    def value(n):
        h = {}
        for i in range(n + a):
            h[i % k] = h.get(i % k, 0) + i
        return len(h) + h.get(probe, 0)

    return Func(name, lines, value)


def _factory(name, rng):
    b, reps = rng.randint(2, 31), rng.randint(2, 6)
    mk = "mk" + name
    lines = [
        f"func {mk}(n int) []int {{",
        "  buf := make([]int, n+1)",
        "  for i := range buf {",
        f"    buf[i] = i % {b}",
        "  }",
        "  return buf",
        "}",
        "",
        f"func {name}(n int) int {{",
        "  t := 0",
        f"  for r := 0; r < {reps}; r++ {{",
        f"    buf := {mk}(n + r)",
        "    t = t + len(buf) + buf[len(buf)-1]",
        "  }",
        "  return t",
        "}",
    ]
    return Func(name, lines,
                lambda n: sum((n + r + 1) + ((n + r) % b) for r in range(reps)))


def _append(name, rng):
    cap, b, m = rng.randint(1, 8), rng.randint(1, 11), rng.randint(7, 101)
    c = rng.randint(0, m - 1)
    lines = [
        f"func {name}(n int) int {{",
        f"  ys := make([]int, 0, {cap})",
        "  for i := 0; i < n; i++ {",
        f"    ys = append(ys, (i*{b}) % {m})",
        "  }",
        "  s := 0",
        "  for i := range ys {",
        f"    if ys[i] > {c} {{",
        "      s = s + 1",
        "    }",
        "  }",
        "  return s + len(ys)",
        "}",
    ]
    return Func(name, lines,
                lambda n: sum(1 for i in range(n) if (i * b) % m > c) + n)


def _structs(name, rng):
    a, m = rng.randint(1, 9), rng.randint(11, 997)
    ty = "Pt" + name
    lines = [
        f"func {name}(n int) int {{",
        "  s := 0",
        "  for i := 0; i < n; i++ {",
        f"    p := &{ty}{{X: i, Y: {a}}}",
        f"    s = s + (p.X*p.Y) % {m}",
        "  }",
        "  return s",
        "}",
    ]
    types = [f"type {ty} struct {{", "  X int", "  Y int", "}"]
    return Func(name, lines, lambda n: sum((i * a) % m for i in range(n)),
                types=types)


def _escape(name, rng):
    a = rng.randint(1, 9)
    g = "keep" + name
    lines = [
        f"func {name}(n int) int {{",
        f"  buf := make([]int, n+{a})",
        f"  buf[0] = {a}",
        f"  {g} = buf",
        "  return len(buf) + buf[0]",
        "}",
    ]
    return Func(name, lines, lambda n: n + 2 * a, globals_=[f"var {g} []int"])


SHAPES = [_slice_sum, _map_hist, _factory, _append, _structs, _escape]


def _combiner(name, callees, rng):
    """A function calling two earlier ones: callees are (call_text, Func)."""
    picks = rng.sample(callees, min(len(callees), 2))
    offs = [rng.randint(0, 5) for _ in picks]
    terms = " + ".join(f"{call}(n+{o})" for (call, _), o in zip(picks, offs))
    lines = [
        f"func {name}(n int) int {{",
        f"  return ({terms}) % {MOD}",
        "}",
    ]
    fns = [f for _, f in picks]
    return Func(name, lines,
                lambda n: sum(f.value(n + o) for f, o in zip(fns, offs)) % MOD)


def functions(rng, count, prefix, imported=()):
    """[count] functions named [prefix]0.. : every shape equally often,
    so the work barely depends on the seed, then a quarter of combiners
    calling two earlier functions or [imported] ones (a list of
    (call_text, Func))."""
    combiners = count // 4
    shapes = (SHAPES * count)[:count - combiners]
    rng.shuffle(shapes)
    out = [shape(f"{prefix}{i}", rng) for i, shape in enumerate(shapes)]
    for i in range(len(out), count):
        callable_ = [(f.name, f) for f in out] + list(imported)
        out.append(_combiner(f"{prefix}{i}", callable_, rng))
    return out


def _emit(funcs):
    lines = []
    for f in funcs:
        lines += f.types
    for f in funcs:
        lines += f.globals
    for f in funcs:
        lines += [""] + f.lines
    return lines


def _main(calls, reps, n):
    """main: a checksum loop over [calls] plus one line per call."""
    lines = ["", "func main() {", "  total := 0",
             f"  for r := 0; r < {reps}; r++ {{"]
    for call, _ in calls:
        lines.append(f"    total = (total + {call}({n} + r)) % {MOD}")
    lines += ["  }", '  println("checksum", total)']
    for call, _ in calls:
        lines.append(f'  println("{call}", {call}({n}))')
    lines.append("}")
    total = 0
    for r in range(reps):
        for _, f in calls:
            total = (total + f.value(n + r)) % MOD
    expected = [f"checksum {total}"] + [f"{c} {f.value(n)}" for c, f in calls]
    return lines, "\n".join(expected) + "\n"


def program(seed):
    """A single-file program of 24 functions; returns (source, expected
    stdout)."""
    rng = random.Random(seed)
    fs = functions(rng, 24, "f")
    main, expected = _main([(f.name, f) for f in fs], reps=20, n=40)
    return "\n".join(_emit(fs) + main) + "\n", expected


class Tree:
    """A multi-package MiniGo tree: {relative path: source} plus the
    expected output of running its linked main."""

    def __init__(self, seed, packages=32, funcs=12):
        self.rng = random.Random(seed)
        self.pkg_funcs = {}
        self.pkg_imports = {}
        for p in range(packages):
            name = f"pkg{p}"
            deps = sorted(self.rng.sample(range(p), min(p, self.rng.randint(0, 2))))
            self.pkg_imports[name] = [f"pkg{d}" for d in deps]
            imported = [(f"{d}.{f.name}", f) for d in self.pkg_imports[name]
                        for f in self.pkg_funcs[d][-2:]]
            self.pkg_funcs[name] = functions(self.rng, funcs, "F", imported)

    def package_source(self, name):
        head = [f"package {name}", ""]
        if self.pkg_imports[name]:
            head += ["import ("] + [f'  "{d}"' for d in self.pkg_imports[name]] + [")"]
        return "\n".join(head + _emit(self.pkg_funcs[name])) + "\n"

    def files(self):
        out = {f"{p}/{p}.go": self.package_source(p) for p in self.pkg_funcs}
        out["main.go"], self.expected = self.main_source()
        return out

    def main_source(self):
        calls = [(f"{p}.{fs[-1].name}", fs[-1]) for p, fs in self.pkg_funcs.items()]
        main, expected = _main(calls, reps=4, n=30)
        head = ["package main", "", "import ("]
        head += [f'  "{p}"' for p in self.pkg_funcs] + [")"]
        return "\n".join(head + main) + "\n", expected

    def edit(self):
        """Give one function of a random package a fresh leaf shape (a
        source edit a developer might make); returns the files that
        changed."""
        name = self.rng.choice(sorted(self.pkg_funcs))
        fs = self.pkg_funcs[name]
        i = self.rng.randrange(len(fs))
        # a fresh shape under the same name; combiners keep calling it
        new = self.rng.choice(SHAPES)(fs[i].name, self.rng)
        old = fs[i]
        old.lines, old.value = new.lines, new.value
        old.globals, old.types = new.globals, new.types
        files = {f"{name}/{name}.go": self.package_source(name)}
        files["main.go"], self.expected = self.main_source()
        return files

