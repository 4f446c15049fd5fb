"""Record the golden item sets and answers the benchmark checks against.

Usage: python3 covbench/record.py

Writes covbench/golden/{sigma,phi,cli}.json from the covercalc in this
checkout.  Run it only at a commit whose answers are known to be right:
every later run compares its answer-and-witness digests, exit codes and
stdout bytes with these files.  Recording refuses any item whose own
checks fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from workloads import GOLDEN, cli_item, load_program, phi_item, sigma_item

# sigma-sweep: every abelian group type of order <= Z_ORDER, and every
# multiset of prime-power blocks of total size <= the bound per ring.
Z_ORDER = 256
BLOCK_RINGS = (("Zi", 128), ("Fp[t] p=2", 32), ("Fp[t] p=3", 81))

# phi-oracle: all Z types and the Z[i] / F_2[t] block multisets up to 32,
# plus heavier modules on which the optimality proof still finishes.
PHI_ORDER = 32
PHI_HEAVY = ("Z: R/(3)^2 + R/(9)", "Z: R/(2)^6", "Z: R/(5)^2", "Zi: R/(2+i)^2")
PUNCTURES = 4

# cli-mixed: one slot per pass each; a seed picks one variant of every slot.
CLI_SLOTS = (
    (["sigma", "Z: R/(4) + R/(4)"], ["sigma", "Z: R/(5) + R/(9) + R^1"],
     ["sigma", "Z: Q + R/(4) + R/(4)"], ["sigma", "Z: primes(10, infinite)"]),
    (["sigma", "Zi: R/(1+i) + R/(1+i)"], ["sigma", "Fp[t] p=2: R/(t^2+t+1)^2"],
     ["sigma", "dedekind {m1:aleph0, m2:aleph0} min=aleph0: R/(m1) + R"],
     ["sigma", "local residue=7 label=m: R/(m^2) + R/(m)"],
     ["sigma", "F q=9: R^3"]),
    (["cover", "Z: R/(12) + R/(18)", "--check"], ["cover", "Zi: R/(3)^2", "--check"],
     ["cover", "Fp[t] p=3: R/(t^2+1)^2", "--check"],
     ["cover", "Z: Pruefer(3) + R/(5)"]),
    (["phi", "Z: R/(12)"], ["phi", "Zi: R/(2+i) + R/(3)"],
     ["phi", "Fp[t] p=2: R/(t^3+t+1)^2"],
     ["phi", "dedekind {m1:4, m2:9} min=4: R/(m1^2*m2)"]),
    (["coset-cover", "Z: R/(360)", "--puncture", "7", "--check"],
     ["coset-cover", "Zi: R/(6+3i)", "--puncture", "1+i", "--check"],
     ["coset-cover", "Fp[t] p=2: R/(t^4+t+1)", "--puncture", "t", "--check"]),
    (["monoid", "N + C(0,4)"], ["monoid", "C(1,3) + C(2,2)"],
     ["monoid", "C(0,3) + C(0,5)"]),
    (["oracle", "sigma", "Z: R/(3)^2"], ["oracle", "sigma", "Zi: R/(1+i) + R/(2i)"],
     ["oracle", "sigma", "Z: R/(4) + R/(4)", "--maximal-only", "false"]),
    (["oracle", "phi", "Z: R/(6)", "--puncture", "0"],
     ["oracle", "phi", "Zi: R/(2+i)", "--puncture", "1+i"],
     ["oracle", "phi", "Z: R/(2)^3 + R/(3)", "--puncture", "5"]),
    (["verify", "Z: R/(2) + R/(2)"],
     ["verify", "Fp[t] p=2: R/(t^2+t+1) + R/(t^2+t+1)"],
     ["verify", "Z: R/(4) + R/(2)", "--phi", "--puncture", "3"]),
    (["snf", "Z", "[[2,4],[6,8]]"], ["snf", "Fp[t] p=3", "[[t,1],[0,t^2]]"],
     ["snf", "Z", "[[3,0,0],[0,6,0],[0,0,10]]"]),
    (["s-set", "Z", "30"], ["s-set", "Zi", "20"], ["s-set", "Fp[t] p=2", "9"]),
    # exit 65: parse and semantic errors
    (["sigma", "Z: R/("], ["phi", "Q: R/(2)"], ["phi", "Z: R/(0)"],
     ["coset-cover", "Z: R/(4) + R/(4)"], ["phi", "Z: R"]),
    # exit 64: usage errors (no --json: argparse rejects before output)
    (["sigma"], ["frobnicate", "x"], ["oracle", "chi", "Z: R/(2)"]),
    # exit 1: domain errors
    (["oracle", "sigma", "Z: R/(2)^14"], ["oracle", "phi", "Z: R/(64)"],
     ["cover", "Z: R/(6)"]),
)
USAGE_SLOT = 12


def partitions(n, most=None):
    most = n if most is None else most
    if n == 0:
        yield []
        return
    for p in range(min(n, most), 0, -1):
        for rest in partitions(n - p, p):
            yield [p] + rest


def abelian_types(bound):
    """Prime-power cyclic orders of every abelian group of order 2..bound."""
    out = []
    for n in range(2, bound + 1):
        fac, m, d = {}, n, 2
        while d * d <= m:
            while m % d == 0:
                fac[d] = fac.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            fac[m] = fac.get(m, 0) + 1
        types = [[]]
        for p, e in fac.items():
            types = [t + [(p, p ** x) for x in part]
                     for t in types for part in partitions(e)]
        out.extend(types)
    return out


def z_entries(bound):
    return [{"spec": "Z: " + " + ".join(f"R/({q})" for _, q in t),
             "primes": [[str(p), p] for p, _ in t]}
            for t in abelian_types(bound)]


def block_entries(cc, ring_text, bound):
    """Every multiset of prime-power blocks m^n with total size <= bound."""
    from covercalc.cardinal import finite
    from covercalc.rings import FactoredIdeal
    ring = cc.parser.parse_ring(ring_text)
    blocks = []
    for m in cc.rings.maximal_ideals_with_residue_at_most(ring, bound):
        r, n = m.residue_card.finite_value, 1
        while r ** n <= bound:
            blocks.append((m, n, r ** n))
            n += 1
    out = []

    def rec(start, size, chosen):
        if chosen:
            torsion = [(FactoredIdeal.from_factors({m: n}), finite(1))
                       for m, n, _ in chosen]
            d = cc.modules.make_descriptor(ring, torsion=torsion)
            out.append({"spec": cc.parser.render_descriptor(d),
                        "primes": [[str(m), m.residue_card.finite_value]
                                   for m, _, _ in chosen]})
        for j in range(start, len(blocks)):
            if size * blocks[j][2] <= bound:
                chosen.append(blocks[j])
                rec(j, size * blocks[j][2], chosen)
                chosen.pop()

    rec(0, 1, [])
    return out


def unique(cc, entries):
    """Drop entries that describe the same module as an earlier one."""
    seen, out = set(), []
    for e in entries:
        key = cc.parser.render_descriptor(cc.parser.parse_spec(e["spec"])[1])
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def record_sigma(cc):
    entries = z_entries(Z_ORDER)
    for ring_text, bound in BLOCK_RINGS:
        entries += block_entries(cc, ring_text, bound)
    entries = unique(cc, entries)
    for e in entries:
        _, e["digest"], problems = sigma_item(cc, e)
        if problems:
            sys.exit(f"record: sigma {e['spec']}: {problems}")
    return entries


def record_phi(cc):
    modules = z_entries(PHI_ORDER)
    for ring_text in ("Zi", "Fp[t] p=2"):
        modules += block_entries(cc, ring_text, PHI_ORDER)
    modules += [{"spec": spec} for spec in PHI_HEAVY]
    entries = []
    for spec in (e["spec"] for e in unique(cc, modules)):
        size = cc.oracle.materialize(cc.parser.parse_spec(spec)[1],
                                     max_size=4096).size
        pool = sorted(random.Random(spec).sample(range(size),
                                                 min(PUNCTURES, size)))
        e = {"spec": spec, "size": size, "digests": {}}
        for p in pool:
            _, e["digests"][str(p)], problems = phi_item(cc, e, p)
            if problems:
                sys.exit(f"record: phi {spec} at {p}: {problems}")
        entries.append(e)
    return entries


def record_cli():
    slots = []
    for k, slot in enumerate(CLI_SLOTS):
        variants = []
        for argv in slot:
            argv = argv if k == USAGE_SLOT else argv + ["--json"]
            _, code, out, _ = cli_item(argv, budget=60)
            variants.append({"argv": argv, "exit": code,
                             "stdout_sha256": hashlib.sha256(out).hexdigest()})
        slots.append(variants)
    return slots


def golden_text(recorded, items) -> str:
    """JSON with one item per line, so a changed golden shows as a line."""
    lines = ",\n".join(json.dumps(item) for item in items)
    return f'{{"recorded_with": {json.dumps(recorded)}, "items": [\n{lines}\n]}}\n'


def main():
    cc = load_program()
    recorded = {"backend": cc.kernels.BACKEND,
                "python": sys.version.split()[0]}
    os.makedirs(GOLDEN, exist_ok=True)
    for name, items in (("sigma", record_sigma(cc)), ("phi", record_phi(cc)),
                        ("cli", record_cli())):
        with open(os.path.join(GOLDEN, f"{name}.json"), "w") as f:
            f.write(golden_text(recorded, items))
        print(f"record: {name}: {len(items)} items")


if __name__ == "__main__":
    main()
