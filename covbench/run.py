"""covercalc benchmark: three closed-loop workloads with checked answers.

Usage:
    python3 covbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
                            [--smoke] [--blowups]

Workloads (one client each; the next item starts when the last one ends):
  sigma-sweep  in process: parse, materialize, oracle sigma, closed form,
               lines witness and its verification, over every abelian group
               type of order <= 256 and Z[i] / F_2[t] / F_3[t] block multisets.
  phi-oracle   in process: the punctured coset-cover oracle over all Z types
               and Z[i] / F_2[t] block multisets up to 32 elements, plus
               (Z/3)^2 + Z/9 and (Z/2)^6, at a seeded puncture.
  cli-mixed    one `python -m covercalc.cli ... --json` child at a time,
               over all commands and rings, error inputs included.

A pass runs every item of the workload once, in an order (and, for
phi-oracle and cli-mixed, punctures or request variants) drawn from the
seed.  Whole passes run, as many as fit S seconds best and at least 100
items, so every run measures the same mix.

Timings are reported at the host's nominal speed: each item's latency, and
each launch that setup_s times, is divided by how much slower than nominal
fixed reference work ran around and during it (a pure-Python loop for
in-process items, a fresh interpreter importing standard-library modules
for launches and CLI children; see host.py), which takes out most of a
shared host's drift.  The process and its children keep to one CPU, the
one the references measure.  setup_s is the median time from launching an interpreter until
covercalc.cli is imported, over SETUP_LAUNCHES launches.  items_per_s is
the item count of a pass over the sum of each item's median latency across
the passes; item_p50_ms and item_p90_ms are percentiles of every latency
of the run.  The report line holds the timings as measured and the median
host factor.

Every item is checked: answers against closed forms and independent
rules, witnesses elementwise, and answer-and-witness digests, exit codes
and stdout bytes against the goldens in covbench/golden (see record.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs of the same passes, prints per-layer metrics (per traced pass)
and the tracing overhead, and writes the spans to .covbench_out/.
--smoke runs a tiny item set once, for the benchmark's own tests.
--blowups adds the known blow-up inputs, each killed at its time budget.

Standard output is a report line ({"covbench": ...}, with the environment
and every failure) and, last, the result line
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl
from host import HostClock
from spans import (EXTRA_COUNTS, LAYER_NAMES, Tracer, parse_importtime,
                   traced_cli_head)

OUT = os.path.join(wl.ROOT, ".covbench_out")
WORKLOADS = ("sigma-sweep", "phi-oracle", "cli-mixed")
GOLDEN_FILE = {"sigma-sweep": "sigma", "phi-oracle": "phi", "cli-mixed": "cli"}
# An item slower than its workload's budget fails; a blow-up is killed there.
BUDGET_S = {"sigma-sweep": 10.0, "phi-oracle": 30.0, "cli-mixed": 10.0}
MIN_ITEMS = 100
SETUP_LAUNCHES = 9

# Known blow-ups, run only under --blowups.  Each is killed at the budget,
# its latency counts as the budget and the item as failed.
PHI_BLOWUPS = ({"spec": "Z: R/(7)^2", "size": 49, "digests": {}, "puncture": 0},)
CLI_BLOWUPS = (
    # two primes near 10^9: phi = (p-1) + (q-1)
    {"argv": ["phi", "Z: R/(1000000016000000063)", "--json"],
     "answer": ("answer", 2000000014)},
    # one plane per prime below 10^8
    {"argv": ["s-set", "Z", "100000000", "--json"],
     "answer": ("modules", 5761455)},
)
# Left out even under --blowups: far beyond any per-item budget.
EXCLUDED_BLOWUPS = (
    {"workload": "phi-oracle", "item": "Zi: R/(3)^2",
     "measured": "> 600 s (pure kernel)"},
    {"workload": "phi-oracle", "item": "Z: R/(3)^4",
     "measured": "413 s (compiled kernel)"},
    {"workload": "sigma-sweep", "item": "Fp[t] p=2 block multisets of size <= 256",
     "measured": "831 s for the family (pure kernel)"},
)


def load_golden(workload):
    with open(os.path.join(wl.GOLDEN, GOLDEN_FILE[workload] + ".json")) as f:
        return json.load(f)["items"]


def smoke_items(workload, items):
    """About a dozen small items spread over the set; every fourth cli slot."""
    if workload == "cli-mixed":
        return items[::4]
    return [e for e in items[::max(1, len(items) // 12)]
            if e.get("size", 0) <= 32][:12]


def launch_ns(extra=()):
    """Launch a fresh interpreter that imports covercalc.cli; return
    (ns from launch until the import finished, stderr).  Parent and child
    read the same system-wide monotonic clock."""
    code = "import time, covercalc.cli; print(time.monotonic_ns())"
    started = time.monotonic_ns()
    done = subprocess.run([sys.executable, *extra, "-c", code], cwd=wl.ROOT,
                          env=wl.child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return int(done.stdout) - started, done.stderr


def measure_setup(clock):
    """Median launch-to-import time, bytecode caches warmed first, as
    (at the host's nominal speed, as measured) in seconds."""
    launch_ns()
    timed = []
    for _ in range(SETUP_LAUNCHES):
        clock.sample()
        t0 = time.perf_counter()
        timed.append((launch_ns()[0] / 1e9, t0, time.perf_counter()))
    clock.sample(clock.side)
    return (statistics.median(s / clock.factor(t0, t1) for s, t0, t1 in timed),
            statistics.median(s for s, _, _ in timed))


class Workload:
    """Items of one workload and how each one runs and is checked."""

    def __init__(self, name, cc, items, blowups, tracer):
        self.name, self.cc, self.items = name, cc, items
        self.blowups, self.tracer = blowups, tracer
        self.budget = BUDGET_S[name]

    def pass_items(self, seed, k):
        """(slot, kind, item) for every item of pass k, in seeded order.
        The slot is the item's place in the item set, the same in every pass."""
        rng = random.Random(seed * 1_000_003 + k)
        if self.name == "sigma-sweep":
            todo = [("sigma", e) for e in self.items]
        elif self.name == "phi-oracle":
            todo = [("phi", (e, int(rng.choice(sorted(e["digests"])))))
                    for e in self.items]
            if self.blowups and k == 0:
                todo += [("phi-blowup", (e, e["puncture"])) for e in PHI_BLOWUPS]
        else:
            todo = [("cli", rng.choice(slot)) for slot in self.items]
            if self.blowups and k == 0:
                todo += [("cli-blowup", b) for b in CLI_BLOWUPS]
        todo = [(slot, kind, item) for slot, (kind, item) in enumerate(todo)]
        rng.shuffle(todo)
        return todo

    def run(self, kind, item):
        """(latency in s, failure reason or None) of one item."""
        if kind == "sigma":
            latency, seen, problems = wl.sigma_item(self.cc, item)
            return latency, _verdict(problems, seen, item["digest"])
        if kind == "phi":
            entry, p = item
            latency, seen, problems = wl.phi_item(self.cc, entry, p)
            return latency, _verdict(problems, seen, entry["digests"][str(p)])
        if kind == "phi-blowup":
            entry, p = item
            done = wl.isolated_phi_item(entry, p, self.budget)
            if done is None:
                return self.budget, "killed at the time budget"
            latency, _, problems = done
            return latency, problems[0] if problems else None
        if kind == "cli":
            return self._cli(item["argv"], item["exit"], item["stdout_sha256"])
        return self._cli(item["argv"], 0, None, item["answer"])

    def _cli(self, argv, want_exit, want_sha, want_answer=None):
        head = wl.CLI_HEAD
        if self.tracer:
            os.makedirs(OUT, exist_ok=True)
            span_file = os.path.join(OUT, f"child-{os.getpid()}.json")
            head = traced_cli_head(span_file)
            started = time.perf_counter_ns()
        latency, code, out, err = wl.cli_item(argv, self.budget, head)
        if self.tracer and code is not None:
            self._absorb_child(span_file, started, err)
        if code is None:
            return latency, "killed at the time budget"
        if code != want_exit:
            return latency, f"exit {code}, golden {want_exit}"
        if want_sha is not None:
            if hashlib.sha256(out).hexdigest() != want_sha:
                return latency, "stdout differs from the golden bytes"
        else:
            key, value = want_answer
            got = json.loads(out)[key]
            if (len(got) if isinstance(got, list) else got) != value:
                return latency, f"{key} is not {value}"
        return latency, None

    def _absorb_child(self, span_file, started_ns, stderr):
        found = parse_importtime(stderr)
        if found:
            self.tracer.add_import(started_ns, *found)
        with open(span_file) as f:
            child = json.load(f)
        os.remove(span_file)
        self.tracer.absorb(child["spans"], child["counts"])


def _verdict(problems, seen, golden):
    if problems:
        return problems[0]
    if seen != golden:
        return "answer or witness digest differs from the golden"
    return None


def run_pass(work, todo, k, failures, clock):
    """Run one pass; return (wall s less the timer's samples, {slot:
    latency at the host's nominal speed}, {slot: latency as measured}).

    A reference sample goes before every item, and clock.side of them
    before the first and after the last; untraced in-process items are
    sampled while they run as well, and the samples' time is taken off
    their latency."""
    latencies, spans = {}, {}
    tracer = work.tracer
    if tracer:
        tracer.item = f"{k}:import"
        launched = time.perf_counter_ns()
        found = parse_importtime(launch_ns(("-X", "importtime"))[1])
        tracer.add_import(launched, *found)
        tracer.install()
    clock.sample(clock.side)
    timer_s = clock.timer_s
    started = time.perf_counter()
    try:
        for i, (slot, kind, item) in enumerate(todo):
            if tracer:
                tracer.item = f"{k}:{i}"
            clock.sample()
            in_process = kind in ("sigma", "phi") and not tracer
            sampled_s = clock.timer_s
            t0 = time.perf_counter()
            if in_process:
                clock.start_timer()
            try:
                latency, reason = work.run(kind, item)
            except Exception as exc:  # an item that raises fails; the run goes on
                latency, reason = time.perf_counter() - t0, repr(exc)
            finally:
                if in_process:
                    clock.stop_timer()
            latency -= clock.timer_s - sampled_s
            if reason is None and latency > work.budget:
                reason = f"over the {work.budget:g} s budget"
            latencies[slot] = latency
            spans[slot] = (t0, time.perf_counter())
            if reason:
                failures.append({"pass": k, "item": _label(kind, item),
                                 "reason": reason})
    finally:
        if tracer:
            tracer.uninstall()
    wall = time.perf_counter() - started - (clock.timer_s - timer_s)
    clock.sample(clock.side)
    nominal = {slot: latency / clock.factor(*spans[slot])
               for slot, latency in latencies.items()}
    return wall, nominal, latencies


def _label(kind, item):
    if kind == "sigma":
        return item["spec"]
    if kind in ("phi", "phi-blowup"):
        return f"{item[0]['spec']} @ {item[1]}"
    return " ".join(item["argv"])


def throughput(by_slot):
    """Items per second of a pass made of each item's median latency, so a
    slow spell that hits a part of one pass does not count."""
    return len(by_slot) / math.fsum(statistics.median(v)
                                    for v in by_slot.values())


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(cc):
    return {"backend": cc.kernels.BACKEND, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0))}


def measure(args):
    cc = wl.load_program()
    items = load_golden(args.workload)
    if args.smoke:
        items = smoke_items(args.workload, items)
    launches = HostClock.launch()
    setup_s, raw_setup_s = measure_setup(launches)
    clock = launches if args.workload == "cli-mixed" else HostClock.loop()
    min_items = 1 if args.smoke else MIN_ITEMS
    untraced = Workload(args.workload, cc, items, args.blowups, None)
    traced = Workload(args.workload, cc, items, args.blowups, Tracer()) \
        if args.trace else None

    failures, latencies, raw_latencies, by_slot, raw_by_slot = [], [], [], {}, {}
    walls = {"untraced": 0.0, "traced": 0.0}
    passes = attempted = 0
    started = time.perf_counter()
    while True:
        todo = untraced.pass_items(args.seed, passes)
        wall, lat, raw = run_pass(untraced, todo, passes, failures, clock)
        walls["untraced"] += wall
        latencies += lat.values()
        raw_latencies += raw.values()
        for slot, latency in lat.items():
            by_slot.setdefault(slot, []).append(latency)
            raw_by_slot.setdefault(slot, []).append(raw[slot])
        attempted += len(lat)
        if traced:
            wall, lat, _ = run_pass(traced, todo, passes, failures, clock)
            walls["traced"] += wall
            attempted += len(lat)
        passes += 1
        # Stop at the whole number of passes nearest to S seconds.
        elapsed = time.perf_counter() - started
        if (elapsed + elapsed / passes / 2 >= args.seconds
                and len(latencies) >= min_items):
            break

    if args.workload == "cli-mixed":
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (throughput(by_slot), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }
    as_measured = {
        "setup_s": (raw_setup_s, "s"),
        "items_per_s": (throughput(raw_by_slot), "1/s"),
        "item_p50_ms": (statistics.median(raw_latencies) * 1e3, "ms"),
        "item_p90_ms": (percentile(raw_latencies, 0.9) * 1e3, "ms"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "blowups": args.blowups, "trace": args.trace,
        "environment": environment(cc), "passes": passes,
        "items": len(latencies), "wall_s": walls,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "excluded_blowups": EXCLUDED_BLOWUPS,
        "end_to_end": _metrics(end_to_end),
        "host_factor": {"setup": launches.median_factor(),
                        "items": clock.median_factor()},
        "end_to_end_as_measured": _metrics(as_measured),
    }
    metrics = report["end_to_end"]
    if traced:
        per_layer = layer_metrics(traced.tracer, passes)
        per_layer["tracing_overhead"] = (walls["traced"] / walls["untraced"] - 1,
                                         "ratio")
        metrics = report["per_layer"] = _metrics(per_layer)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        traced.tracer.write(path)
        report["spans_file"] = os.path.relpath(path, wl.ROOT)
    print(json.dumps({"covbench": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def layer_metrics(tracer, passes):
    """Per-layer calls, total and self time and counts, per traced pass."""
    totals = tracer.layer_totals()
    out = {}
    for layer in LAYER_NAMES:
        calls, total_ns, self_ns = totals.get(layer, (0, 0, 0))
        out[f"{layer}.calls"] = (calls / passes, "count")
        out[f"{layer}.total_s"] = (total_ns / 1e9 / passes, "s")
        out[f"{layer}.self_s"] = (self_ns / 1e9 / passes, "s")
    for key in EXTRA_COUNTS:
        out[key] = (tracer.counts.get(key, 0) / passes, "count")
    functionals = tracer.counts.get("oracle.maximal_submodules.functionals", 0)
    kept = tracer.counts.get("oracle.maximal_submodules.kept", 0)
    out["oracle.maximal_submodules.kept_ratio"] = (
        kept / functionals if functionals else 0.0, "ratio")
    return out


def _metrics(table):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in table.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--blowups", action="store_true")
    return p.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    # One CPU for this process and the children it starts, so that the
    # reference samples come from the CPU every item runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    measure(arguments)
