"""cover-calc: covering numbers of direct sums of cyclic modules.

Commands:
    sigma        exact covering answer for a descriptor
    cover        sigma plus an explicit witness (--check verifies it)
    phi          punctured coset-cover count (conjectural flag where apt)
    coset-cover  explicit punctured coset cover (--puncture, --check)
    monoid       classify a direct sum of cyclic monoids
    oracle       brute-force sigma or phi on a materialized module
    verify       formula vs. oracle; exits 2 on mismatch
    snf          Smith normal form of a matrix over Z or F_p[t]
    s-set        the planes (R/m)^2 with residue below a bound

Machine output (--json) is a single JSON document with stable field order
and no timing, so identical invocations are byte-identical; exit codes:
0 ok, 1 domain error, 2 verify mismatch, 64 usage, 65 parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .errors import CoverCalcError, SpecSemanticError, SpecSyntaxError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cover-calc", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def spec_cmd(name, **kw):
        c = sub.add_parser(name, **kw)
        c.add_argument("spec")
        c.add_argument("--json", action="store_true")
        return c

    spec_cmd("sigma", help="exact covering answer")
    c = spec_cmd("cover", help="covering answer with witness")
    c.add_argument("--check", action="store_true")
    c.add_argument("--max-size", type=_positive_int)
    spec_cmd("phi", help="punctured coset-cover count")
    c = spec_cmd("coset-cover", help="explicit punctured coset cover")
    c.add_argument("--puncture", default="0")
    c.add_argument("--check", action="store_true")
    c.add_argument("--max-size", type=_positive_int)
    c = sub.add_parser("monoid", help="classify a sum of cyclic monoids")
    c.add_argument("spec")
    c.add_argument("--json", action="store_true")
    c = sub.add_parser("oracle", help="brute-force search")
    c.add_argument("mode", choices=["sigma", "phi"])
    c.add_argument("spec")
    c.add_argument("--json", action="store_true")
    c.add_argument("--max-size", type=_positive_int)
    c.add_argument("--puncture", default="0")
    # accepted for old scripts: every minimum cover can be taken from the
    # maximal submodules, so "false" answers as "true" does
    c.add_argument("--maximal-only", choices=["true", "false"], default="true")
    c = spec_cmd("verify", help="formula vs. oracle")
    c.add_argument("--max-size", type=_positive_int)
    c.add_argument("--phi", action="store_true")
    c.add_argument("--puncture", default="0")
    c = sub.add_parser("snf", help="Smith normal form")
    c.add_argument("ring")
    c.add_argument("matrix")
    c.add_argument("--json", action="store_true")
    c = sub.add_parser("s-set", help="planes (R/m)^2 with residue < n")
    c.add_argument("ring")
    c.add_argument("n", type=_positive_int)
    c.add_argument("--json", action="store_true")
    return p


def _positive_int(text: str) -> int:
    """An argument n >= 1; argparse reports anything else as a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return n


def _glue_punctures(argv) -> list:
    """Each `--puncture V` whose V starts with a single dash as
    `--puncture=V`, since argparse reads such a V (`-2+i`, `-t`) as an
    option; so too each prefix argparse takes for `--puncture`, from
    `--pu` on (`--p` may be `--phi`).  `--puncture --json` stays a usage
    error."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 3 and "--puncture".startswith(out[-1])
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_glue_punctures(argv))
    except _UsageError as exc:
        print(f"cover-calc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        report, code = _dispatch(args)
    except (SpecSyntaxError, SpecSemanticError) as exc:
        print(f"cover-calc: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CoverCalcError as exc:
        print(f"cover-calc: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if getattr(args, "json", False):
        print(json.dumps(report))
    else:
        _print_human(report, elapsed_ms)
    return code


def _dispatch(args) -> tuple[dict, int]:
    report = _COMMANDS[args.command](args)
    mismatch = args.command == "verify" and not report["oracle"]["match"]
    return report, EXIT_MISMATCH if mismatch else EXIT_OK


def _base_report(command: str, text: str) -> dict:
    return {"schema": "cover-calc/1", "command": command, "input": text}


def _spec_report(args, command: str):
    """Parse the spec; (ring, descriptor, the report's header fields)."""
    from . import parser
    ring, d = parser.parse_spec(args.spec)
    rep = _base_report(command, args.spec)
    rep["ring"] = parser.render_ring(ring)
    rep["descriptor"] = parser.render_descriptor(d)
    return ring, d, rep


def _sigma_payload(d) -> dict:
    from . import covering
    nc = covering._nc_set(d)
    out = {"answer": covering._sigma(d, nc).token()}
    if nc is None:
        out["q"] = None
        out["nc"] = None
        return out
    out["q"] = str(nc.q) if nc.q is not None else None
    out["nc"] = "all" if nc.all_maximal else [str(m) for m in nc.ideals]
    return out


def _cmd_sigma(args) -> dict:
    _, d, rep = _spec_report(args, "sigma")
    rep.update(_sigma_payload(d))
    return rep


def _witness_json(w) -> dict:
    from . import covering
    if w.kind == covering.LINES:
        return {"kind": "lines", "ideal": str(w.ideal),
                "summands": list(w.summand_pair),
                "lines": list(w.line_strs),
                "materializable": w.materializable,
                "symbolic": w.symbolic}
    return {"kind": "chain", "chain": w.chain_kind,
            "ideal": str(w.ideal) if w.ideal else None,
            "description": w.description}


def _cmd_cover(args) -> dict:
    from . import covering
    _, d, rep = _spec_report(args, "cover")
    rep.update(_sigma_payload(d))
    w = covering.build_cover_witness(d)
    rep["witness"] = _witness_json(w)
    if args.check:
        ok = None
        if w.kind == covering.LINES and w.materializable:
            from . import oracle
            mod = oracle.materialize(d, max_size=_oracle_max_size(args, False))
            ok = oracle.verify_cover_witness(mod, w)
        rep["witness_checked"] = ok
    return rep


def _phi_blocks(d) -> list:
    if not d.is_finite_torsion:
        raise SpecSemanticError("phi is defined for finite torsion modules")
    blocks = []
    for m, exps in d.blocks:
        for e, mult in exps:
            blocks.extend([(m, e)] * mult.finite_value)
    return blocks


def _cmd_phi(args) -> dict:
    from . import cosets
    ring, d, rep = _spec_report(args, "phi")
    value, conjectural = cosets.phi_conjecture_value(ring, _phi_blocks(d))
    rep["answer"] = value
    rep["conjectural"] = conjectural
    return rep


def _cyclic_ideal(ring, d):
    from . import modules, rings
    if not (d.is_finite_torsion and not d.is_zero
            and modules.nc_set(d).is_empty):
        raise SpecSemanticError(
            "coset-cover needs a cyclic torsion module (coprime annihilators)")
    factors = {}
    for ideal, mult in d.torsion:
        for m, e in ideal.factors:
            factors[m] = factors.get(m, 0) + e * mult.finite_value
    return rings.FactoredIdeal.from_factors(factors)


def _cmd_coset_cover(args) -> dict:
    from . import cosets, parser
    ring, d, rep = _spec_report(args, "coset-cover")
    ideal = _cyclic_ideal(ring, d)
    puncture = parser.parse_element(args.puncture, ring)
    w = cosets.build_coset_cover(ring, ideal, puncture)
    render = ring.render
    rep["answer"] = w.count()
    rep["witness"] = {
        "kind": "coset-cover",
        "target": w.target_str(),
        "puncture": render(w.puncture),
        "cosets": [{"submodule_generators": [render(g)],
                    "representative": render(r)}
                   for g, r in w.cosets],
    }
    if args.check:
        rep["witness_checked"] = cosets.verify_coset_cover(
            w, max_size=_oracle_max_size(args, False))
    return rep


def _cmd_monoid(args) -> dict:
    from . import monoids, parser
    d = parser.parse_monoid(args.spec)
    rep = _base_report("monoid", args.spec)
    rep["descriptor"] = str(d)
    ans = monoids.classify_monoid(d)
    rep["classification"] = ans.kind
    if ans.kind == monoids.IS_GROUP:
        from . import covering
        rep["delegate"] = parser.render_descriptor(ans.group_descriptor)
        rep["answer"] = covering.sigma(ans.group_descriptor).token()
    elif ans.kind == monoids.TWO_SUBMONOIDS:
        a, b = ans.partition.part_strs()
        rep["answer"] = "two-submonoids"
        rep["partition"] = {"pivot": ans.partition.pivot, "parts": [a, b]}
        rep["partition_verified"] = monoids.verify_monoid_partition(d, ans)
    else:
        rep["answer"] = "no-cover"
    return rep


def _oracle_max_size(args, phi: bool) -> int:
    """--max-size, or the bound of the oracle search for the question:
    every command refuses the same sizes for the same question."""
    from . import oracle
    if args.max_size is not None:
        return args.max_size
    return oracle.COSET_SIZE_BOUND if phi else oracle.SIGMA_SIZE_BOUND


def _puncture_index(text: str, ring, mod) -> int:
    from . import parser
    if len(mod.summands) == 1:
        return mod.encode_ring_element(0, parser.parse_element(text, ring))
    try:
        index = int(text)
    except ValueError as exc:
        raise SpecSemanticError(
            "puncture on a direct sum is an element index") from exc
    if not 0 <= index < mod.size:
        raise SpecSemanticError(
            f"puncture index {index} is outside 0..{mod.size - 1}")
    return index


def _cmd_oracle(args) -> dict:
    from . import oracle
    ring, d, rep = _spec_report(args, f"oracle {args.mode}")
    max_size = _oracle_max_size(args, args.mode == "phi")
    mod = oracle.materialize(d, max_size=max_size)
    rep["module_size"] = mod.size
    if args.mode == "sigma":
        size, witness = oracle.min_submodule_cover(mod, max_size=max_size)
        rep["answer"] = size if size is not None else "no-cover"
        rep["witness"] = [{"generators": list(s.generators), "size": s.size()}
                          for s in witness]
    else:
        puncture = _puncture_index(args.puncture, ring, mod)
        size, witness = oracle.min_coset_cover_punctured(
            mod, puncture, max_size=max_size)
        rep["answer"] = size
        rep["puncture"] = puncture
        rep["witness"] = [{"submodule_generators": list(s.generators),
                           "representative": r}
                          for _, s, r in witness]
    return rep


def _cmd_verify(args) -> dict:
    from . import cosets, covering, oracle
    ring, d, rep = _spec_report(args, "verify")
    max_size = _oracle_max_size(args, args.phi)
    mod = oracle.materialize(d, max_size=max_size)
    if args.phi:
        value, conjectural = cosets.phi_conjecture_value(ring, _phi_blocks(d))
        puncture = _puncture_index(args.puncture, ring, mod)
        got, _ = oracle.min_coset_cover_punctured(mod, puncture,
                                                  max_size=max_size)
        rep["formula"] = value
        rep["conjectural"] = conjectural
        rep["oracle"] = {"value": got, "match": got == value}
    else:
        formula = covering.sigma_integer(d)
        size, _ = oracle.min_submodule_cover(mod, max_size=max_size)
        got = size if size is not None else math.inf
        rep["formula"] = "no-cover" if formula == math.inf else formula
        rep["oracle"] = {"value": "no-cover" if size is None else size,
                         "match": got == formula}
    return rep


def _cmd_snf(args) -> dict:
    from . import parser, snf
    ring = parser.parse_ring(args.ring)
    A = parser.parse_matrix(args.matrix, ring)
    try:
        diag, U, V = snf.smith_normal_form(ring, A)
    except ValueError as exc:
        raise SpecSemanticError(str(exc)) from exc
    rep = _base_report("snf", args.matrix)
    rep["ring"] = parser.render_ring(ring)
    render = ring.render
    rep["diagonal"] = [render(x) for x in diag]
    rep["U"] = [[render(x) for x in row] for row in U]
    rep["V"] = [[render(x) for x in row] for row in V]
    return rep


def _cmd_s_set(args) -> dict:
    from . import covering, parser
    ring = parser.parse_ring(args.ring)
    rep = _base_report("s-set", f"{args.ring} n={args.n}")
    rep["ring"] = parser.render_ring(ring)
    rep["modules"] = [parser.render_descriptor(d)
                      for d in covering.s_set(ring, args.n)]
    return rep


_COMMANDS = {"sigma": _cmd_sigma, "cover": _cmd_cover, "phi": _cmd_phi,
             "coset-cover": _cmd_coset_cover, "monoid": _cmd_monoid,
             "oracle": _cmd_oracle, "verify": _cmd_verify, "snf": _cmd_snf,
             "s-set": _cmd_s_set}


def _print_human(report: dict, elapsed_ms: float) -> None:
    for key, value in report.items():
        if key == "schema":
            continue
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")
    print(f"elapsed: {elapsed_ms:.1f} ms")


if __name__ == "__main__":
    sys.exit(main())
