"""The benchmark's workloads: what each op asks of the library and how its
output is checked.

* corpus: small seeded random DAGs, the research-sweep traffic.  One op is
  the full certified pipeline for one instance.  Hundreds of tiny LPs, so
  per-call overhead counts for more than pivots.
* rni_ladder: mid-size random DAGs; one op is solve_rni (auto route) plus
  its arc certificate.  One dense cut LP per op, almost all of it pivots.
  The 12-node rung is refused today although both enumeration limits fit;
  it stays in so that the defect shows.
* families: the paper's families through the CLI entry point, in process.
  Mostly exact Fraction max-flow and min-cut; the only workload that runs
  instances.parse and the CLI's JSON output.

An op's check returns ("ok" | "refused" | "wrong", detail).  "refused" is a
documented limit refusal: an exception named ``*LimitExceeded`` in process,
exit code 2 through the CLI, or a report that skipped a model.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

TOL = 1e-6
CORPUS_POOL = 1020  # 17 blocks of 60
CORPUS_TRACE_PASS = 120

# Fixed on purpose: the seed orders the rungs.  Drawing the random-instance
# seeds from the workload seed moved one solve between 0.1 s and 4.6 s, so
# ten workload seeds disagreed far beyond any usable bound.
LADDER = [(9, 18, 10, gamma, s) for gamma in (2, 3) for s in range(4)]
LADDER += [(12, 24, 10, 2, 5)]
SMOKE_LADDER = [(6, 12, 10, 2, 0), (6, 12, 10, 3, 0), (12, 24, 10, 2, 5)]

FAMILIES = [
    ("fig1", 12, 2),
    ("fig2a", 6, 2),
    ("fig2a", 20, 3),
    ("fig2a", 100, 3),
    ("fig2b", 12, 2),
    ("fig2b", 24, 2),
    ("fig2b", 48, 2),
]
SMOKE_FAMILIES = [("fig1", 12, 2), ("fig2a", 6, 2), ("fig2b", 12, 2)]
FAMILY_COMMANDS = (("report",), ("solve", "--model", "rni"), ("solve", "--model", "rni-path"))

WORKLOADS = ("corpus", "rni_ladder", "families")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


@dataclass
class Workload:
    ops: list[Op]  # one pass; for corpus the whole pool, cycled if exhausted
    trace_ops: list[Op]  # the pass the traced run repeats
    whole_passes: bool  # stop only between passes: the ops are not alike
    tail_pct: int  # the percentile reported as op_tail_s
    post_check: Callable[[], dict[str, str]] = field(default=dict)  # op -> problem


def close(a, b) -> bool:
    return abs(float(a) - float(b)) <= TOL * (1.0 + abs(float(b)))


def chain_breaks(values) -> list[str]:
    """Breaks of Z_LO <= Z_RNI^Path <= Z_RNI <= Z_NI among known values."""
    known = [(k, v) for k, v in values if v is not None]
    return [
        f"{lk}={lv} > {uk}={uv}"
        for (lk, lv), (uk, uv) in zip(known, known[1:])
        if lv > uv + TOL * (1.0 + abs(uv))
    ]


def build(name: str, lib, seed: int, smoke: bool, workdir: str) -> Workload:
    if name == "corpus":
        return corpus(lib, seed, smoke)
    if name == "rni_ladder":
        return rni_ladder(lib, seed, smoke)
    if name == "families":
        return families(lib, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")


# -- corpus -----------------------------------------------------------------


def corpus(lib, seed: int, smoke: bool) -> Workload:
    """Sizes follow acceptance criterion 5: 4-7 nodes, 8-12 arcs, capacities
    up to 2-9, gamma cycling 1..3.  The sizes are stratified: each block of
    60 instances holds every (gamma, nodes, arcs) combination once, in a
    seeded order, so that seeds differ in instances but not in size mix."""
    rng = random.Random(seed)
    combos = [(g, n, a) for g in (1, 2, 3) for n in range(4, 8) for a in range(8, 13)]
    ops = []
    while len(ops) < (6 if smoke else CORPUS_POOL):
        block = combos[:]
        rng.shuffle(block)
        for gamma, nodes, arcs in block:
            cap, s = rng.randint(2, 9), rng.randrange(2**31)
            inst = lib.random_instance(nodes, arcs, cap, gamma, s)
            ops.append(
                Op(
                    f"random_instance({nodes}, {arcs}, {cap}, {gamma}, {s})",
                    lambda inst=inst: _corpus_run(lib, inst),
                    _corpus_check,
                )
            )
    trace_ops = ops[: 3 if smoke else CORPUS_TRACE_PASS]
    return Workload(ops, trace_ops, whole_passes=False, tail_pct=95)


def _corpus_run(lib, inst) -> dict:
    out = {"report": lib.approx_report(inst)}
    out["rni"] = lib.solve_rni(inst)
    out["rni_cert"] = lib.certify(inst, out["rni"], kind="arc")
    out["path"] = lib.solve_rni_path(inst)
    out["path_cert"] = lib.certify(inst, out["path"], kind="path")
    if inst.gamma == 1:
        out["gamma1"] = lib.solve_rni_gamma1(inst)
        out["gamma1_cert"] = lib.certify_gamma1(inst, out["gamma1"])
    return out


def _corpus_check(out) -> tuple[str, str]:
    rep = out["report"]
    if rep.partial:
        return "refused", f"report skipped {', '.join(rep.skipped)}"
    problems = [f"bound {bc.name} FAIL" for bc in rep.bounds if bc.verdict == "FAIL"]
    problems += chain_breaks(
        [("Z_LO", rep.z_lo), ("Z_RNI^Path", rep.z_rni_path), ("Z_RNI", rep.z_rni),
         ("Z_NI", rep.z_ni)]
    )
    for key in ("rni_cert", "path_cert", "gamma1_cert"):
        cert = out.get(key)
        if cert is not None and not cert.passed:
            problems.append(
                f"{key} FAIL (flow_gap={cert.flow_gap:.3g}, "
                f"adversary_gap={cert.adversary_gap:.3g})"
            )
    pairs = [("solve_rni", out["rni"].value, rep.z_rni),
             ("solve_rni_path", out["path"].value, rep.z_rni_path)]
    if "gamma1" in out:
        pairs.append(("solve_rni_gamma1", out["gamma1"].value, rep.z_rni))
    problems += [f"{who}={got} but report says {want}"
                 for who, got, want in pairs if not close(got, want)]
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")


# -- rni_ladder -------------------------------------------------------------


def rni_ladder(lib, seed: int, smoke: bool) -> Workload:
    rungs = list(SMOKE_LADDER if smoke else LADDER)
    random.Random(seed).shuffle(rungs)
    solved = {}  # op name -> (instance, solution), for the post-run check

    def make(spec):
        inst = lib.random_instance(*spec)
        name = f"random_instance{spec}"

        def run():
            sol = lib.solve_rni(inst)
            return sol, lib.certify(inst, sol, kind="arc")

        def check(out):
            sol, cert = out
            if not cert.passed:
                return "wrong", (f"certificate FAIL (flow_gap={cert.flow_gap:.3g}, "
                                 f"adversary_gap={cert.adversary_gap:.3g})")
            solved[name] = (inst, sol)
            return "ok", ""

        return Op(name, run, check)

    def post_check() -> dict[str, str]:
        """Value chain Z_LO <= Z_RNI <= Z_NI and the ratio bounds
        Z_RNI <= gamma Z_LO, Z_NI <= (gamma+1) Z_LO, run once per solved
        rung after the timed loop."""
        problems = {}
        for name, (inst, sol) in sorted(solved.items()):
            z_ni = float(lib.solve_ni(inst).value)
            z_lo = float(lib.solve_lo(inst).value)
            breaks = chain_breaks([("Z_LO", z_lo), ("Z_RNI", sol.value), ("Z_NI", z_ni)])
            breaks += chain_breaks([("Z_RNI", sol.value), ("gamma*Z_LO", inst.gamma * z_lo)])
            breaks += chain_breaks([("Z_NI", z_ni), ("(gamma+1)*Z_LO", (inst.gamma + 1) * z_lo)])
            if breaks:
                problems[name] = "; ".join(breaks)
        return problems

    ops = [make(spec) for spec in rungs]
    return Workload(ops, ops, whole_passes=True, tail_pct=75, post_check=post_check)


# -- families ---------------------------------------------------------------


def family_values(family: str, k: int, gamma: int) -> dict:
    """Closed forms the paper states for its families."""
    if family == "fig1" and (k, gamma) == (12, 2):
        return {"z_ni": 11, "z_rni": 10, "z_rni_path": 8, "z_lo": 6}
    if family == "fig2a":
        return {"z_ni": k - gamma, "z_rni": k / (gamma + 1), "z_rni_path": k / (gamma + 1)}
    if family == "fig2b" and gamma == 2:
        return {"z_ni": k - 1, "z_rni": k - 1, "z_rni_path": k / 2, "z_lo": k / 2}
    return {}


def _call_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def families(lib, smoke: bool, workdir: str) -> Workload:
    """Setup writes the files with the CLI's generate command; the ops read
    them back through the CLI.  No seed: the families are the paper's."""
    cli = importlib.import_module(lib.__name__ + ".cli")
    ops = []
    for family, k, gamma in SMOKE_FAMILIES if smoke else FAMILIES:
        path = os.path.join(workdir, f"{family}_k{k}_g{gamma}.txt")
        argv = ["generate", "--family", family, "--k", str(k), "--gamma", str(gamma),
                "--out", path]
        code, text = _call_cli(cli, argv)
        if code != 0:
            raise RuntimeError(f"generate {family}({k},{gamma}) exited {code}: {text}")
        expected = family_values(family, k, gamma)
        for command in FAMILY_COMMANDS:
            argv = [command[0], path, *command[1:], "--json"]
            ops.append(
                Op(
                    f"{family}({k},{gamma}) {' '.join(command)}",
                    lambda argv=argv: _call_cli(cli, argv),
                    lambda out, command=command, expected=expected: _family_check(
                        out, command, expected
                    ),
                )
            )
    return Workload(ops, ops, whole_passes=True, tail_pct=75)


def _family_check(out, command, expected) -> tuple[str, str]:
    code, text = out
    try:
        payload = json.loads(text)
    except ValueError:
        return "wrong", f"exit {code}, output is not JSON: {text[:200]!r}"
    error = payload.get("error") if isinstance(payload, dict) else None
    if code == 2 and error and error.get("kind") == "limit":
        return "refused", error.get("message", "")
    if code != 0:
        return "wrong", f"exit {code}: {error}"
    problems = []
    if command[0] == "report":
        values = payload["values"]
        problems += [f"bound {b['name']} FAIL" for b in payload["bounds"]
                     if b["verdict"] == "FAIL"]
        problems += chain_breaks([(k, values[k]) for k in
                                  ("z_lo", "z_rni_path", "z_rni", "z_ni")])
        got = values
    else:
        cert = payload.get("certificate")
        if not cert or not cert.get("pass"):
            problems.append(f"certificate FAIL: {cert}")
        got = {"z_rni" if command[2] == "rni" else "z_rni_path": payload["value"]}
    for key, want in expected.items():
        if got.get(key) is not None and not close(got[key], want):
            problems.append(f"{key}={got[key]}, closed form {want}")
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")
