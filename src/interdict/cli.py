"""Command-line front end: generate instances, solve any model, and emit
bound reports, as plain tables or JSON.

Settings are flags only: --scenario-limit (default DEFAULT_SCENARIO_LIMIT)
caps every exact enumeration, and --tolerance (default 1e-6) is the
certificates' gap tolerance.  A limit below 1 or a tolerance outside
(0, 1) is bad input.

Exit codes: 0 success, 1 bad arguments or unparsable input, 2 resource
limit exceeded (the scenario limit, which also caps the s-t paths the
path model enumerates), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .game import DEFAULT_SCENARIO_LIMIT, ScenarioLimitExceeded
from .instances import (
    FAMILIES,
    GeneratorSpec,
    ParseError,
    SpecInvalid,
    generate,
    parse,
    serialize,
)
from .linopt import NumericalFailure
from .lomodel import approx_report, solve_lo
from .solvers import (
    GammaMismatch,
    certify,
    certify_gamma1,
    gamma1_strategy,
    solve_ni,
    solve_rni,
    solve_rni_gamma1,
    solve_rni_path,
)

MODELS = ("ni", "rni", "rni-path", "lo", "gamma1")
PROB_PRINT_FLOOR = 1e-9


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad args exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="interdict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--k", type=int)
    gen.add_argument("--gamma", type=int, required=True)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--nodes", type=int)
    gen.add_argument("--arcs", type=int)
    gen.add_argument("--cap-max", type=int, dest="cap_max")
    gen.add_argument("--fig2b-prose", action="store_true", dest="fig2b_prose")
    gen.add_argument("--out")

    def add_common(p):
        p.add_argument("file", help="instance file, or - for stdin")
        p.add_argument("--json", action="store_true")
        p.add_argument(
            "--scenario-limit", type=int, dest="scenario_limit",
            default=DEFAULT_SCENARIO_LIMIT,
        )
        p.add_argument("--tolerance", type=float, default=1e-6)

    slv = sub.add_parser("solve", help="solve one model")
    slv.add_argument("--model", required=True, choices=MODELS)
    add_common(slv)

    rep = sub.add_parser("report", help="full value/bound report")
    add_common(rep)
    return parser


def _read_instance(path):
    if path == "-":
        return parse(sys.stdin.read()), "<stdin>"
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read()), path


def _print_json(
    instance, name, model, value, strategy=None, certificate=None, bounds=(),
    **extra,
):
    """The stable top-level keys of solve and report --json, then the
    command's own."""
    payload = {
        "instance": {
            "file": name,
            "nodes": instance.node_count,
            "arcs": instance.arc_count,
            "gamma": instance.gamma,
        },
        "model": model,
        "value": value,
        "strategy": [
            {"arcs": list(s.removed), "prob": float(p)}
            for s, p in (strategy.support if strategy is not None else ())
        ],
        "certificate": None if certificate is None else {
            "flow_gap": certificate.flow_gap,
            "adversary_gap": certificate.adversary_gap,
            "pass": certificate.passed,
        },
        "bounds": [
            {
                "name": bc.name,
                "lhs": bc.lhs,
                "rhs": bc.rhs,
                "verdict": bc.verdict,
                "tight": bc.tight,
            }
            for bc in bounds
        ],
        **extra,
    }
    print(json.dumps(payload, indent=2))


def _print_strategy(strategy):
    print("strategy:")
    for scenario, prob in strategy.support:
        if prob < PROB_PRINT_FLOOR:
            continue
        arcs = ", ".join(str(a) for a in scenario.removed)
        print(f"  remove {{{arcs}}}  p={prob:.6f}")


def _print_flow(flow):
    print("flow witness:")
    if hasattr(flow, "entries"):
        for path, amount in flow.entries:
            arcs = "->".join(str(a) for a in path)
            print(f"  path {arcs}  amount={float(amount):.6f}")
    else:
        for aid, value in sorted(flow.values.items()):
            print(f"  arc {aid}: {float(value):.6f}")


def _print_certificate(cert):
    verdict = "PASS" if cert.passed else "FAIL"
    print(
        f"certificate: flow_gap={cert.flow_gap:.3e} "
        f"adversary_gap={cert.adversary_gap:.3e} {verdict}"
    )


def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        gamma=args.gamma,
        k=args.k,
        seed=args.seed,
        nodes=args.nodes,
        arcs=args.arcs,
        cap_max=args.cap_max,
        fig2b_prose=args.fig2b_prose,
    )
    instance = generate(spec)
    text = serialize(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"nodes={instance.node_count} arcs={instance.arc_count}")
    else:
        sys.stdout.write(text)
        print(
            f"nodes={instance.node_count} arcs={instance.arc_count}",
            file=sys.stderr,
        )
    return 0


def cmd_solve(args) -> int:
    instance, name = _read_instance(args.file)
    model = args.model
    strategy = None
    certificate = None
    extra = {}
    if model == "ni":
        sol = solve_ni(instance, scenario_limit=args.scenario_limit)
        value = float(sol.value)
        flow = sol.witness_flow
        extra["witness_removal"] = list(sol.witness_scenario.removed)
    elif model in ("rni", "rni-path"):
        solve, kind = (solve_rni, "arc") if model == "rni" else (solve_rni_path, "path")
        sol = solve(instance, scenario_limit=args.scenario_limit)
        value = sol.value
        strategy = sol.strategy
        flow = sol.flow_witness
        certificate = certify(instance, sol, kind, args.tolerance, args.scenario_limit)
    elif model == "lo":
        sol = solve_lo(instance)
        value = float(sol.value)
        flow = sol.flow
        extra["theta_star"] = float(sol.theta_star)
        extra["flow_value"] = float(sol.flow_value)
    else:  # gamma1
        sol = solve_rni_gamma1(instance)
        value = sol.value
        strategy = gamma1_strategy(sol)
        flow = None
        certificate = certify_gamma1(instance, sol, tolerance=args.tolerance)

    if args.json:
        _print_json(instance, name, model, value, strategy, certificate, **extra)
        return 0
    label = {
        "ni": "Z_NI",
        "rni": "Z_RNI",
        "rni-path": "Z_RNI^Path",
        "lo": "Z_LO",
        "gamma1": "Z_RNI",
    }[model]
    print(f"{label} = {value:.6g}")
    for key, val in extra.items():
        if isinstance(val, float):
            print(f"{key} = {val:.6g}")
        else:
            print(f"{key} = {val}")
    if strategy is not None:
        _print_strategy(strategy)
    if flow is not None:
        _print_flow(flow)
    if certificate is not None:
        _print_certificate(certificate)
    return 0


def cmd_report(args) -> int:
    instance, name = _read_instance(args.file)
    report = approx_report(
        instance,
        tolerance=args.tolerance,
        scenario_limit=args.scenario_limit,
    )
    if args.json:
        _print_json(
            instance,
            name,
            "report",
            report.z_lo,
            bounds=report.bounds,
            values={
                "nominal_max_flow": report.nominal_max_flow,
                "z_ni": report.z_ni,
                "z_rni": report.z_rni,
                "z_rni_path": report.z_rni_path,
                "z_lo": report.z_lo,
                "theta_star": report.theta_star,
                "flow_value": report.flow_value,
            },
            cuts={
                "s_prime": sorted(report.s_prime.s_side),
                "s_dblprime": sorted(report.s_dblprime.s_side),
                "a": report.a,
                "b": report.b,
                "big_l": report.big_l,
            },
            partial=report.partial,
            skipped=list(report.skipped),
        )
        return 0

    def show(label, v):
        print(f"{label} = {v:.6g}" if v is not None else f"{label} = n/a")

    show("nominal max flow", report.nominal_max_flow)
    show("Z_NI", report.z_ni)
    show("Z_RNI", report.z_rni)
    show("Z_RNI^Path", report.z_rni_path)
    show("Z_LO", report.z_lo)
    show("theta*", report.theta_star)
    show("Val(x*)", report.flow_value)
    print(f"cuts: |A(S',theta*)|={report.a} |B(S'',theta*)|={report.b} L={report.big_l:.6g}")
    if report.partial:
        print(f"partial result: skipped {', '.join(report.skipped)} (limits)")
    print("bounds:")
    for bc in report.bounds:
        verdict = bc.verdict + ("(tight)" if bc.verdict == "PASS" and bc.tight else "")
        lhs = "n/a" if bc.lhs is None else f"{bc.lhs:.4f}"
        rhs = "n/a" if bc.rhs is None else f"{bc.rhs:.4f}".rstrip("0").rstrip(".")
        print(f"  {bc.name} = {lhs} <= {rhs} {verdict}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)

    def fail(code, kind, exc):
        if as_json:
            print(json.dumps({"error": {"kind": kind, "message": str(exc)}}))
        else:
            print(f"error ({kind}): {exc}", file=sys.stderr)
        return code

    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.scenario_limit < 1:
            raise ValueError("scenario_limit must be positive")
        if not 0 < args.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_report(args)
    except (ParseError, SpecInvalid, GammaMismatch, ValueError, OSError) as exc:
        return fail(1, "input", exc)
    except ScenarioLimitExceeded as exc:
        return fail(2, "limit", exc)
    except NumericalFailure as exc:
        return fail(3, "numerical", exc)


if __name__ == "__main__":
    sys.exit(main())
