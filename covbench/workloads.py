"""Items of the three benchmark workloads, each run and checked.

Every item returns its latency, a digest of everything it answered
(compared against the golden recorded from a known-good commit) and a
list of problems found by checks that need no golden: the oracle against
the closed form and an independent rule, and every witness elementwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden")


def load_program() -> SimpleNamespace:
    """Import covercalc from this checkout's source tree, or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "covercalc", "cli.py")):
        sys.exit(f"covbench: no covercalc sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import covercalc
    from covercalc import (_kernels, cli, cosets, covering, modules, oracle,
                           parser, rings)
    if not os.path.abspath(covercalc.__file__).startswith(SRC + os.sep):
        sys.exit(f"covbench: covercalc imported from {covercalc.__file__}, "
                 f"not from {SRC}")
    return SimpleNamespace(parser=parser, oracle=oracle, covering=covering,
                           cosets=cosets, modules=modules, rings=rings,
                           kernels=_kernels, cli=cli)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def q_plus_one(primes) -> float:
    """Independent sigma rule: q+1 for the least residue size q of a maximal
    ideal met by two summands, else no cover (inf)."""
    seen, repeated = set(), []
    for label, card in primes:
        if label in seen:
            repeated.append(card)
        seen.add(label)
    return min(repeated) + 1 if repeated else math.inf


def sigma_item(cc, entry):
    """Oracle sigma, closed form and lines witness on one finite module."""
    started = time.perf_counter()
    _, d = cc.parser.parse_spec(entry["spec"])
    mod = cc.oracle.materialize(d)
    size, parts = cc.oracle.min_submodule_cover(mod)
    formula = cc.covering.sigma_integer(d)
    witness = verified = None
    if formula != math.inf:
        witness = cc.covering.build_cover_witness(d)
        verified = cc.oracle.verify_cover_witness(mod, witness)
    latency = time.perf_counter() - started

    problems = []
    found = math.inf if size is None else size
    rule = q_plus_one(entry["primes"])
    if not found == formula == rule:
        problems.append(f"oracle {found}, closed form {formula}, q+1 rule {rule}")
    if witness is not None and verified is not True:
        problems.append("lines witness rejected")
    if found != math.inf and len(parts) != found:
        problems.append("oracle witness size differs from its answer")
    lines = None if witness is None else [
        witness.kind, str(witness.ideal), list(witness.summand_pair),
        [list(pt) for pt in witness.line_points], list(witness.line_strs)]
    seen = digest([size, [[hex(s.mask), list(s.generators)] for s in parts],
                   str(formula), lines, verified])
    return latency, seen, problems


def _add(orders, x, y) -> int:
    """Index of x + y in the mixed-radix enumeration (digit 0 least significant)."""
    out, scale = 0, 1
    for o in orders:
        x, a = divmod(x, o)
        y, b = divmod(y, o)
        out += ((a + b) % o) * scale
        scale *= o
    return out


def check_coset_witness(orders, puncture, witness) -> list:
    """Each part is coset = sub + rep of a proper sub avoiding the puncture,
    and the parts cover exactly M minus the puncture."""
    size = math.prod(orders)
    full = (1 << size) - 1
    union = 0
    for coset, sub, rep in witness:
        mask = sub.mask
        if mask == full or not mask & 1:
            return ["a coset of a non-proper submodule"]
        shifted = 0
        for x in range(size):
            if mask >> x & 1:
                shifted |= 1 << _add(orders, x, rep)
        if shifted != coset:
            return ["a coset mask is not its submodule translated by its rep"]
        if coset >> puncture & 1:
            return ["a coset contains the puncture"]
        union |= coset
    if union != full & ~(1 << puncture):
        return ["the cosets do not cover M minus the puncture"]
    return []


def phi_expected(cc, d, mod) -> int:
    """Szegedy's count over Z, else the sum of phi_prime over the blocks."""
    if mod.ring.kind == cc.rings.INTEGERS:
        return cc.cosets.phi_finite_abelian(mod.orders)
    return sum(cc.cosets.phi_prime(d.ring, m, e) * mult.finite_value
               for m, exps in cc.modules.normalize(d).blocks
               for e, mult in exps)


def phi_item(cc, entry, puncture):
    """Punctured coset-cover oracle on one module at one puncture."""
    started = time.perf_counter()
    _, d = cc.parser.parse_spec(entry["spec"])
    mod = cc.oracle.materialize(d, max_size=entry["size"])
    size, witness = cc.oracle.min_coset_cover_punctured(
        mod, puncture, max_size=entry["size"])
    latency = time.perf_counter() - started

    problems = []
    want = phi_expected(cc, d, mod)
    if size != want:
        problems.append(f"oracle {size}, closed form {want}")
    if len(witness) != size:
        problems.append("witness size differs from its answer")
    problems += check_coset_witness(mod.orders, puncture, witness)
    seen = digest([size, [[hex(c), hex(s.mask), list(s.generators), r]
                          for c, s, r in witness]])
    return latency, seen, problems


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


CLI_HEAD = (sys.executable, "-m", "covercalc.cli")


def cli_item(argv, budget, head=CLI_HEAD):
    """One CLI child process; (latency, exit code, stdout bytes, stderr text).

    A child still running at the budget is killed and reported with exit
    code None and the budget as its latency.
    """
    started = time.perf_counter()
    try:
        done = subprocess.run([*head, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return budget, None, b"", ""
    return (time.perf_counter() - started, done.returncode, done.stdout,
            done.stderr.decode(errors="replace"))


def _phi_child(conn, entry, puncture):
    conn.send(phi_item(load_program(), entry, puncture))
    conn.close()


def isolated_phi_item(entry, puncture, budget):
    """phi_item in a spawned process that is killed at the budget.

    Returns phi_item's result, or None when the budget ran out.
    """
    ctx = multiprocessing.get_context("spawn")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_phi_child, args=(send, entry, puncture))
    child.start()
    send.close()
    try:
        return receive.recv() if receive.poll(budget) else None
    except EOFError:
        raise RuntimeError("phi child exited without an answer") from None
    finally:
        receive.close()
        if child.is_alive():
            child.kill()
        child.join()
