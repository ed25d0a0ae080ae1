"""Acceptance suite: reproduces the built-in family values, the bound
chain and tightness trends, the gamma-1 equivalences, the full property
corpus, Monte Carlo validation, and the parametric-model oracle check.

Each criterion prints one PASS line (visible with `pytest -s`); a failed
assert inside a criterion is the FAIL signal.
"""

import random
import time
from functools import lru_cache

import pytest

from interdict.game import (
    estimate_expected_payoff,
    expected_payoff,
)
from interdict.instances import fig1, fig2a, fig2b, random_instance
from interdict.lomodel import approx_report, path_model_factor, solve_lo
from interdict.solvers import (
    certify,
    gamma1_residuals,
    solve_ni,
    solve_rni,
    solve_rni_gamma1,
    solve_rni_path,
)
from oracles import adaptive_by_cuts, adaptive_by_scenarios, theta_sweep

REL = 1e-6


def close(a, b, rel=REL):
    return abs(a - b) <= rel * (1 + abs(b))


@lru_cache(maxsize=None)
def gamma1_corpus():
    out = []
    for i in range(100):
        rng = random.Random(4100 + i)
        out.append(
            random_instance(
                nodes=rng.randint(4, 7),
                arcs=rng.randint(6, 12),
                cap_max=rng.randint(2, 9),
                gamma=1,
                seed=5200 + i,
            )
        )
    return out


@lru_cache(maxsize=None)
def property_corpus():
    out = []
    for i in range(200):
        rng = random.Random(9200 + i)
        out.append(
            random_instance(
                nodes=rng.randint(4, 7),
                arcs=rng.randint(8, 12),
                cap_max=rng.randint(2, 9),
                gamma=i % 3 + 1,
                seed=17000 + i,
            )
        )
    return out


def test_criterion_1_first_family_reproduction():
    started = time.monotonic()
    inst = fig1(12, 2)
    z_ni = float(solve_ni(inst).value)
    z_rni = solve_rni(inst).value
    z_rni_path = solve_rni_path(inst).value
    lo = solve_lo(inst)
    z_lo = float(lo.value)
    assert close(z_ni, 11.0)
    assert close(z_rni, 10.0)
    assert close(z_rni_path, 8.0)
    assert close(z_lo, 6.0)
    sweep_value, _ = theta_sweep(inst)
    assert close(z_lo, float(sweep_value))
    assert close(z_rni / z_rni_path, 1.25)
    bound = path_model_factor(2)
    assert close(z_rni_path / z_lo, 4 / 3)
    assert close(z_rni_path / z_lo, bound)  # bound met with equality
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"[criterion 1] first-family values 11/10/8/6 with tight path ratio: PASS ({elapsed:.1f}s)")


def test_criterion_2_second_family_reproduction_and_trend():
    started = time.monotonic()
    inst = fig2a(6, 2)
    assert close(float(solve_ni(inst).value), 4.0)
    assert close(solve_rni(inst).value, 2.0)
    assert close(solve_rni_path(inst).value, 2.0)

    # large case: exact deterministic value against the family formula for
    # the randomized value (K / (gamma+1) = 25)
    big = fig2a(100, 3)
    z_ni_big = float(solve_ni(big).value)
    assert close(z_ni_big, 97.0)
    ratio_big = z_ni_big / 25.0
    assert close(ratio_big, 3.88)
    assert ratio_big >= 3.8
    # the cut formulation also reaches the randomized value directly
    assert close(solve_rni(big).value, 25.0)

    # mid case solved end to end
    mid = fig2a(20, 3)
    z_ni_mid = float(solve_ni(mid).value)
    z_rni_mid = solve_rni(mid).value
    assert close(z_ni_mid, 17.0)
    assert close(z_rni_mid, 5.0)
    assert z_ni_mid / z_rni_mid >= 3.3
    assert close(z_ni_mid / z_rni_mid, 3.4)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"[criterion 2] second-family values and 3.88 / 3.4 ratios: PASS ({elapsed:.1f}s)")


def test_criterion_3_four_node_family_trend():
    started = time.monotonic()
    ratios = []
    notes = []
    for k in (12, 24, 48):
        inst = fig2b(k, 2)
        z_rni = solve_rni(inst).value
        z_rni_path = solve_rni_path(inst).value
        ratio = z_rni / z_rni_path
        assert ratio <= 2.0 + REL
        ratios.append(ratio)
        # comparison against the family's stated closed forms is reported,
        # not asserted; the drawn-layout variant is the generator default
        caption_rni, caption_path = k - 2 + 1, k / 2
        notes.append(
            f"K={k}: Z_RNI={z_rni:.4f} (stated {caption_rni}), "
            f"Z_RNI^Path={z_rni_path:.4f} (stated {caption_path})"
        )
    assert ratios[0] < ratios[1] < ratios[2]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    for note in notes:
        print(f"[criterion 3] {note}")
    print(f"[criterion 3] ratio <= 2 and strictly increasing {ratios}: PASS ({elapsed:.1f}s)")


def test_criterion_4_single_removal_equivalence():
    started = time.monotonic()
    for inst in gamma1_corpus():
        arc = solve_rni(inst).value
        path = solve_rni_path(inst).value
        g1 = solve_rni_gamma1(inst)
        scale = 1 + abs(arc)
        assert abs(arc - path) <= REL * scale
        assert abs(arc - g1.value) <= REL * scale
        assert abs(path - g1.value) <= REL * scale
        assert max(gamma1_residuals(inst, g1).values()) <= 1e-7
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"[criterion 4] gamma=1 equivalence on 100 instances: PASS ({elapsed:.1f}s)")


def test_criterion_5_property_suite():
    started = time.monotonic()
    violations = []
    for i, inst in enumerate(property_corpus()):
        gamma = inst.gamma
        report = approx_report(inst)
        if report.partial:
            violations.append((i, f"skipped {report.skipped}"))
            continue
        for bc in report.bounds:
            if bc.verdict == "FAIL":
                violations.append((i, bc))
        z = report
        tol = REL * (1 + abs(z.z_ni))
        if not (z.z_lo <= z.z_rni_path + tol and z.z_rni_path <= z.z_rni + tol
                and z.z_rni <= z.z_ni + tol):
            violations.append((i, "value chain"))
        if not (z.z_ni <= (gamma + 1) * z.z_lo + tol and z.z_rni <= gamma * z.z_lo + tol
                or z.z_lo <= tol):
            violations.append((i, "parametric lower-bound ratios"))
        if z.z_lo > tol and z.z_rni_path > path_model_factor(gamma) * z.z_lo + tol:
            violations.append((i, "path-model factor"))
        if z.theta_star > 0 and z.a < gamma:
            violations.append((i, "below-cut condition"))
        if z.b >= gamma:
            violations.append((i, "above-cut condition"))
        if not certify(inst, z.rni, kind="arc").passed:
            violations.append((i, "arc certificate"))
        if not certify(inst, z.rni_path, kind="path").passed:
            violations.append((i, "path certificate"))
        witness = z.rni.flow_witness
        if adaptive_by_scenarios(inst, witness) != adaptive_by_cuts(inst, witness):
            violations.append((i, "adaptive value oracles disagree"))
    assert not violations, violations[:10]
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"[criterion 5] zero violations across 200 instances: PASS ({elapsed:.1f}s)")


def test_criterion_6_monte_carlo_validation():
    started = time.monotonic()
    checked = 0
    for i, inst in enumerate(property_corpus()[:20]):
        sol = solve_rni(inst)
        expected = float(expected_payoff(inst, sol.strategy, sol.flow_witness))
        mean, se = estimate_expected_payoff(
            inst, sol.strategy, sol.flow_witness, samples=10_000, seed=31000 + i
        )
        if se > 0:
            assert abs(mean - expected) <= 4 * se
        else:
            assert abs(mean - expected) <= 1e-9
        if i < 3:  # determinism spot-check
            again = estimate_expected_payoff(
                inst, sol.strategy, sol.flow_witness, samples=10_000, seed=31000 + i
            )
            assert again == (mean, se)
        checked += 1
    assert checked == 20
    elapsed = time.monotonic() - started
    print(f"[criterion 6] Monte Carlo within 4 standard errors on 20 instances: PASS ({elapsed:.1f}s)")


def test_criterion_7_parametric_model_oracle():
    started = time.monotonic()
    instances = [
        fig1(12, 2),
        fig2a(6, 2),
        fig2a(20, 3),
        fig2a(100, 3),
        fig2b(12, 2),
        fig2b(24, 2),
        fig2b(48, 2),
    ]
    instances += list(gamma1_corpus())
    instances += list(property_corpus())
    for inst in instances:
        sol = solve_lo(inst)
        best, _ = theta_sweep(inst)
        assert sol.value == best, inst
    elapsed = time.monotonic() - started
    print(
        f"[criterion 7] exact value equals the theta-sweep oracle on "
        f"{len(instances)} instances: PASS ({elapsed:.1f}s)"
    )
