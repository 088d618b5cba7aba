"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest output.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from groverlab.bruteforce import evolve
from groverlab.cli import main as cli_main
from groverlab.coherence import coherence_l1_ga, coherence_r_ga
from groverlab.discord import genuine_discord_ga, genuine_discord_partition_minima
from groverlab.entanglement import concurrence_two_qubit, concurrence_two_qubit_ga
from groverlab.gga import (
    AmplitudeDistribution,
    PhiFamily,
    gga_closed_form,
    gga_iterate,
    gga_optimal_time,
    gga_pmax,
    phi_family_delta_coherence,
)
from groverlab.grover import GroverConfig, optimal_iterations, state_at, success_probability
from groverlab.linalg import DensityMatrix, pure_partial_trace, von_neumann_entropy
from groverlab.nonlocality import chsh_M, chsh_M_ga, svetlichny_max, svetlichny_max_ga
from groverlab.optimizers import OptimizerConfig
from witnesses import (
    closed_form_averages,
    coherence_l1,
    coherence_relative_entropy,
    gga_success_probability_at,
    phi_family_distribution,
    phi_family_states,
)


def _report(number: int, description: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number}: {status} - {description}{timing}")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def test_criterion_1_coherence_monotonicity():
    start = time.perf_counter()
    failures = []
    for j in range(1, 11):
        cfg = GroverConfig(n=11, j=j)
        values = coherence_r_ga(cfg, state_at(cfg, np.arange(optimal_iterations(cfg) + 1)))
        if values[0] != 11.0:
            failures.append(f"j={j}: C_r(0) = {values[0]!r} != 11.0")
        if not np.all(np.diff(values) < 0.0):
            failures.append(f"j={j}: not strictly decreasing")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "C_r strictly decreasing over n=11, j=1..10, starting at exactly 11 bits", failures, elapsed)


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    worst = {"cr": 0.0, "cl1": 0.0, "e2": 0.0, "m": 0.0, "dn": 0.0}
    for n in range(2, 9):
        for j in (1, 2):
            cfg = GroverConfig(n=n, j=j)
            dist = evolve(cfg, 0)
            for r in range(optimal_iterations(cfg) + 1):
                s = state_at(cfg, r)
                rho = DensityMatrix.from_pure(dist.amplitudes)
                worst["cr"] = max(
                    worst["cr"], abs(coherence_r_ga(cfg, s) - coherence_relative_entropy(rho))
                )
                worst["cl1"] = max(
                    worst["cl1"], abs(coherence_l1_ga(cfg, s) - coherence_l1(rho))
                )
                if j == 1:
                    rho2 = pure_partial_trace(dist.amplitudes, (0, 1))
                    worst["e2"] = max(
                        worst["e2"],
                        abs(concurrence_two_qubit_ga(cfg, s) - concurrence_two_qubit(rho2)),
                    )
                    worst["m"] = max(worst["m"], abs(chsh_M_ga(cfg, s) - chsh_M(rho2)))
                    rho1 = pure_partial_trace(dist.amplitudes, (0,))
                    worst["dn"] = max(
                        worst["dn"], abs(genuine_discord_ga(cfg, s) - von_neumann_entropy(rho1))
                    )
                dist = gga_iterate(dist, 1)
    elapsed = time.perf_counter() - start
    failures = []
    for key, tol in (("cr", 1e-10), ("cl1", 1e-10), ("e2", 1e-8), ("m", 1e-8), ("dn", 1e-8)):
        if worst[key] > tol:
            failures.append(f"{key}: deviation {worst[key]:.3e} > {tol:g}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(
        2,
        "closed forms match brute-force statevector measures for n<=8, j in {1,2}",
        failures,
        elapsed,
    )


def test_criterion_3_success_probability_anchors():
    failures = []
    cfg2, cfg3 = GroverConfig(n=2, j=1), GroverConfig(n=3, j=1)
    if success_probability(cfg2, state_at(cfg2, 1)) != 1.0:
        failures.append("P(1) at n=2 not exactly 1")
    p2 = success_probability(cfg3, state_at(cfg3, 2))
    if abs(p2 - 121 / 128) > 1e-12:
        failures.append(f"P(2) at n=3 off by {abs(p2 - 121 / 128):.2e}")
    for n, expected in ((2, 1), (3, 2), (11, 35)):
        cfg = GroverConfig(n=n, j=1)
        if optimal_iterations(cfg) != expected:
            failures.append(f"r_opt({n}) != {expected}")
        dist = evolve(cfg, 0)
        probs = []
        for _ in range(2 * expected + 2):
            probs.append(abs(dist.amplitudes[0]) ** 2)
            dist = gga_iterate(dist, 1)
        if int(np.argmax(probs)) != expected:
            failures.append(f"oracle scan at n={n} peaks at {int(np.argmax(probs))}, not {expected}")
    _report(3, "P(1)=1 at n=2, P(2)=121/128 at n=3, r_opt in {1,2,35} confirmed by scan", failures)


def test_criterion_4_cost_performance():
    cfg = GroverConfig(n=11, j=1)
    s = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
    p = success_probability(cfg, s)
    failures = []
    for fn, w, label in (
        (coherence_r_ga, 1 / math.log2(2048), "relative-entropy"),
        (coherence_l1_ga, 1 / 2048, "l1"),
    ):
        c = fn(cfg, s)
        slope = -np.polyfit(c, p, 1)[0]
        rel = abs(slope - w) / w
        if rel > 0.05:
            failures.append(f"{label}: fitted slope {slope:.6g} vs {w:.6g}, rel err {rel:.3f}")
    _report(4, "least-squares -dP/dC slopes recover 1/log2(N) and 1/N within 5%", failures)


def test_criterion_5_gga_dynamics():
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        N = 1 << n
        j = int(rng.integers(1, min(8, N // 2)))
        v = rng.normal(size=N)
        v /= np.linalg.norm(v)
        d0 = AmplitudeDistribution(v, tuple(range(j)))
        cf = gga_closed_form(d0)
        k_dev0 = d0.solution_amplitudes - d0.kbar
        l_dev0 = d0.other_amplitudes - d0.lbar
        dist = d0
        for r in range(1, 41):
            dist = gga_iterate(dist, 1)
            l_dev = dist.other_amplitudes - dist.lbar
            k_dev = dist.solution_amplitudes - dist.kbar
            if np.max(np.abs(l_dev - (-1.0) ** r * l_dev0)) > 1e-10:
                failures.append(f"seed {seed}: l-deviation mismatch at r={r}")
                break
            if np.max(np.abs(k_dev - k_dev0)) > 1e-10:
                failures.append(f"seed {seed}: k-deviation drift at r={r}")
                break
            kbar, lbar = closed_form_averages(cf, j, N, r)
            if abs(dist.kbar.real - kbar) > 1e-10 or abs(dist.lbar.real - lbar) > 1e-10:
                failures.append(f"seed {seed}: closed-form averages mismatch at r={r}")
                break
        peak = gga_success_probability_at(d0, gga_optimal_time(d0).time)
        if abs(peak - gga_pmax(d0)) > 1e-9:
            failures.append(f"seed {seed}: peak {peak!r} vs pmax {gga_pmax(d0)!r}")
    _report(5, "20 random starts: deviation structure, averages, and variance peak formula", failures)


def test_criterion_6_phi_family():
    failures = []
    N = 1024
    grid = np.linspace(0.0, 1 / math.sqrt(N), 50)
    depletions = []
    times = []
    for phi0 in grid:
        fam = PhiFamily.from_phi0(N, float(phi0))
        depletions.append(phi_family_delta_coherence(fam))
        times.append(gga_optimal_time(phi_family_distribution(fam)).time)
    if not all(a >= b - 1e-12 for a, b in zip(depletions, depletions[1:])):
        failures.append("coherence depletion not monotone in phi0")
    if not all(a >= b - 1e-12 for a, b in zip(times, times[1:])):
        failures.append("optimal time not monotone in phi0")
    fam = PhiFamily.from_phi0(N, 1 / math.sqrt(N))
    initial, optimal = phi_family_states(fam)
    oracle = coherence_relative_entropy(DensityMatrix.from_pure(initial)) - coherence_relative_entropy(
        DensityMatrix.from_pure(optimal)
    )
    if abs(oracle - 9.0) > 1e-9:
        failures.append(f"generic-oracle endpoint depletion {oracle!r} != 9.0")
    if abs(depletions[-1] - 9.0) > 1e-9:
        failures.append(f"formula endpoint depletion {depletions[-1]!r} != 9.0")
    _report(6, "phi-family depletion and optimal time both monotone; endpoint = 9 bits", failures)


def test_criterion_7_genuine_correlation_reduction():
    failures = []
    for n in range(2, 11):
        cfg = GroverConfig(n=n, j=1)
        rs = np.arange(optimal_iterations(cfg) + 1)
        series = genuine_discord_ga(cfg, state_at(cfg, rs))
        minima = genuine_discord_partition_minima(cfg, rs)
        for r in rs.tolist():
            brute = minima[r]
            closed = series[r]
            if abs(brute - closed) > 1e-9:
                failures.append(f"n={n}, r={r}: |{brute!r} - {closed!r}| > 1e-9")
    _report(7, "exhaustive partition minimum equals H((1+sqrt(Delta))/2) for n<=10", failures)


def test_criterion_8_nonlocality_null_results():
    start = time.perf_counter()
    failures = []
    # (a) pairwise CHSH at n=24
    cfg = GroverConfig(n=24, j=1)
    s = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
    m = chsh_M_ga(cfg, s)
    asym = 1.0 - 2.0 * s.a**2 * np.cos(s.alpha_r) ** 2
    if np.any(np.abs(m - asym) > 1e-3):
        r = int(np.argmax(np.abs(m - asym) > 1e-3))
        failures.append(f"CHSH asymptote violated at r={r}: |{m[r]} - {asym[r]}| > 1e-3")
    if np.any(m > 1.0 + 1e-9):
        r = int(np.argmax(m > 1.0 + 1e-9))
        failures.append(f"CHSH M = {m[r]!r} > 1 at r={r}")
    # (b) Svetlichny: optimizer control on GHZ, then the full n=11 sweep
    config = OptimizerConfig(restarts=64, seed=0)
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    ghz_value = svetlichny_max(DensityMatrix.from_pure(ghz), config).value
    if abs(ghz_value - 4 * math.sqrt(2)) > 1e-9:
        failures.append(f"optimizer control: GHZ value {ghz_value!r} misses 4*sqrt(2)")
    cfg11 = GroverConfig(n=11, j=1)
    for r in range(optimal_iterations(cfg11) + 1):
        value = svetlichny_max_ga(cfg11, r, config).value
        if value > 4.0 + 1e-6:
            failures.append(f"Svetlichny bound exceeded at r={r}: {value!r}")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.0f}s >= 180s")
    _report(8, "no CHSH violation at n=24, no Svetlichny violation at n=11; GHZ control hit", failures, elapsed)


def test_pairwise_chsh_null_result_holds_for_one_solution_only():
    # Criterion 8 is a j = 1 result. With solutions {0, 1, 2} at n = 4 the
    # pair (0, 1) violates CHSH after one iteration: M = 1 + 3/256, so the
    # best CHSH value is 2 sqrt(M) > 2.
    result = CliRunner().invoke(cli_main, ["ga", "--n", "4", "--j", "3", "--measures", "m"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-2:] == ["0,0.1875,1", "1,0.94921875,1.01171875"]
    m = chsh_M(pure_partial_trace(evolve(GroverConfig(n=4, j=3), 1).amplitudes, (0, 1)))
    assert m == pytest.approx(1.0 + 3.0 / 256.0, abs=1e-12)
    assert 2.0 * math.sqrt(m) > 2.0


def test_criterion_9_determinism(tmp_path):
    failures = []
    runner = CliRunner()
    jobs = {
        "verify": ["verify", "--max-n", "4", "--seed", "3"],
        "ga": ["ga", "--n", "6", "--j", "1", "--measures", "cr,e2,en,dn,m,d2", "--seed", "3", "--grid", "16x32"],
        "gga-phi": ["gga", "--n", "10", "--phi-points", "13", "--seed", "3"],
        "figdata": ["ga", "--n", "11", "--j", "1..10", "--measures", "cr", "--seed", "3"],
    }
    for name, args in jobs.items():
        outputs = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{name}-{attempt}.out"
            result = runner.invoke(cli_main, args + ["--out", str(path)])
            if result.exit_code != 0:
                failures.append(f"{name}: exit code {result.exit_code}")
                break
            outputs.append(path.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"{name}: consecutive runs differ")
    _report(9, "verify and sweeps byte-identical across consecutive same-seed runs", failures)
