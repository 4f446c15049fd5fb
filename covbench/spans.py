"""Spans around calls into covercalc's public functions, kept in memory.

Tracing wraps module attributes from outside the program (covercalc's
modules call each other through module attributes and globals, so a
wrapped attribute sees every call); nothing under src/ changes.  Each
span is [name, start_ns, end_ns, parent index, item id, self_ns], where
self time is the span's duration minus that of its child spans.

main() is the traced stand-in for `python -m covercalc.cli`: see
traced_cli_head().
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _popcount_arg(i):
    def count(args, out):
        return args[i].bit_count()
    return count


def _popcount_out(args, out):
    return out.bit_count()


def _functionals(args, out):
    """Projective functionals maximal_submodules enumerates, over each p | |M|."""
    orders = args[0].orders
    n, p, primes = args[0].size, 2, []
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    total = 0
    for p in primes:
        r = sum(1 for d in orders if d % p == 0)
        total += (p ** r - 1) // (p - 1)
    return total


# (module, attribute, layer, {extra count: f(args, result)})
LAYERS = (
    ("covercalc.parser", "parse_spec", "parser.parse_spec", {}),
    ("covercalc.covering", "sigma", "covering.sigma", {}),
    ("covercalc.covering", "build_cover_witness", "covering.build_cover_witness", {}),
    ("covercalc.cosets", "phi_conjecture_value", "cosets.phi_conjecture_value", {}),
    ("covercalc.cosets", "build_coset_cover", "cosets.build_coset_cover", {}),
    ("covercalc.cosets", "verify_coset_cover", "cosets.verify_coset_cover", {}),
    ("covercalc.oracle", "materialize", "oracle.materialize",
     {"elements": lambda args, out: out.size}),
    ("covercalc.oracle", "maximal_submodules", "oracle.maximal_submodules",
     {"functionals": _functionals, "kept": lambda args, out: len(out)}),
    ("covercalc.oracle", "verify_cover_witness", "oracle.verify_cover_witness", {}),
    ("covercalc.oracle", "punctured_coset_candidates",
     "oracle.punctured_coset_candidates",
     {"candidates": lambda args, out: len(out)}),
    ("covercalc.oracle", "min_submodule_cover", "oracle.min_submodule_cover", {}),
    ("covercalc.oracle", "min_coset_cover_punctured",
     "oracle.min_coset_cover_punctured", {}),
    ("covercalc._kernels", "min_cover", "kernels.min_cover",
     {"universe_bits": _popcount_arg(0),
      "candidates": lambda args, out: len(args[1]),
      "answer": lambda args, out: out[0] or 0}),
    ("covercalc._kernels", "translate", "kernels.translate",
     {"elements": _popcount_arg(1)}),
    # closure takes seed indices, not a mask: count the subgroup it returns
    ("covercalc._kernels", "closure", "kernels.closure",
     {"elements": _popcount_out}),
    ("covercalc._kernels", "invariant_core", "kernels.invariant_core",
     {"elements": _popcount_arg(2)}),
)
IMPORT_LAYER = "import.covercalc_cli"
CLI_LAYER = "cli.main"
LAYER_NAMES = (IMPORT_LAYER, CLI_LAYER) + tuple(layer for _, _, layer, _ in LAYERS)
EXTRA_COUNTS = tuple(f"{layer}.{name}" for _, _, layer, extra in LAYERS
                     for name in extra)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.item = None
        self._open = []          # [span index, child time] of each open span
        self._saved = []

    def wrap(self, name, fn, extra=None):
        spans, counts, opened = self.spans, self.counts, self._open

        def traced(*args, **kwargs):
            rec = [name, 0, 0, opened[-1][0] if opened else -1, self.item, 0]
            frame = [len(spans), 0]
            spans.append(rec)
            opened.append(frame)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = time.perf_counter_ns()
                opened.pop()
                rec[5] = end - rec[1] - frame[1]
                if opened:
                    opened[-1][1] += end - rec[1]
            for key, count in (extra or {}).items():
                counts[f"{name}.{key}"] += count(args, out)
            return out
        return traced

    def install(self):
        """Wrap every layer; undone by uninstall()."""
        for module, attr, layer, extra in LAYERS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(layer, original, extra))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def add_import(self, started_ns, cumulative_us, self_us):
        self.spans.append([IMPORT_LAYER, started_ns,
                           started_ns + cumulative_us * 1000, -1, self.item,
                           self_us * 1000])

    def absorb(self, spans, counts):
        """Take over the spans and counts of a traced child process."""
        base = len(self.spans)
        for name, start, end, parent, _, self_ns in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1,
                               self.item, self_ns])
        for key, value in counts.items():
            self.counts[key] += value

    def layer_totals(self):
        """{layer: [calls, total_ns, self_ns]} over every recorded span."""
        totals = defaultdict(lambda: [0, 0, 0])
        for name, start, end, _, _, self_ns in self.spans:
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += self_ns
        return totals

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, item, self_ns in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "item": item, "self_ns": self_ns}) + "\n")


def parse_importtime(stderr: str):
    """(cumulative_us, self_us) of covercalc.cli from `-X importtime` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rstrip().endswith(" covercalc.cli"):
            own, cumulative, _ = line[len("import time:"):].split("|")
            return int(cumulative), int(own)
    return None


def traced_cli_head(spans_path):
    """Command head running the CLI with every layer wrapped.

    The child imports covercalc.cli first, as `python -m covercalc.cli`
    does, so `-X importtime` times the same import; stdout and the exit
    code are the CLI's own, and the spans go to spans_path.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    boot = ("import covercalc.cli, sys; sys.path.insert(0, sys.argv[1]); "
            "import spans; sys.exit(spans.main(sys.argv[2:]))")
    return (sys.executable, "-X", "importtime", "-c", boot, here, spans_path)


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    cli = sys.modules["covercalc.cli"]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap(CLI_LAYER, cli.main)(cli_argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as f:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    return code
