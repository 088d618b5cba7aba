"""Output checks, run after the timed loop.

Each check reads one op's output file and returns (failures, rows). A ga
sweep must have the expected header and r = 0..min(r_max, r_opt) for every
j, no NA where the engine metadata claims a value, physical ranges, and, for
n <= 12, agreement on a seeded sample of rows with a statevector oracle kept
here, at the identity tolerances the package states. Optimizer measures on
sampled rows are recomputed through the package's optimizers, which must
report convergence and reproduce the value.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from workloads import CANONICAL_ORDER, OPTIMIZER_MEASURES

# groverlab.bruteforce._IDENTITY_TOLERANCES at the parent commit; the
# self-test fails if the package's table is ever looser than this one.
IDENTITY_TOLERANCES = {
    "success_probability": 1e-12,
    "coherence_relative_entropy": 1e-10,
    "coherence_l1": 1e-10,
    "concurrence_two_qubit": 1e-8,
    "chsh_M": 1e-10,
    "genuine_discord": 1e-10,
    "multiqubit_concurrence_forms": 1e-9,
}
MEASURE_IDENTITY = {
    "p": "success_probability",
    "cr": "coherence_relative_entropy",
    "cl1": "coherence_l1",
    "e2": "concurrence_two_qubit",
    "en": "multiqubit_concurrence_forms",
    "dn": "genuine_discord",
    "m": "chsh_M",
}
# CSV values carry 12 significant digits; a compared value may be off by
# half a unit in the 12th digit on top of the identity tolerance.
CSV_RELATIVE_ROUNDING = 1e-11
# Recomputing an optimizer from the oracle's statevector instead of the
# program's may move the optimum within the refinement tolerance.
OPTIMIZER_REPRODUCE_TOL = 1e-7
CAPACITY_QUBITS = 12
SAMPLE_ROWS_PER_J = 2
SLACK = 1e-9


def r_opt(n: int, j: int) -> int:
    """Closest integer to (pi - alpha)/(2 alpha); half-integer ties round toward zero."""
    alpha = 2.0 * math.atan2(math.sqrt(j), math.sqrt((1 << n) - j))
    exact = (math.pi - alpha) / (2.0 * alpha)
    floor = math.floor(exact)
    frac = exact - floor
    if abs(frac - 0.5) < 1e-12:
        return max(0, floor)
    return max(0, floor if frac < 0.5 else floor + 1)


def physical_range(measure: str, n: int) -> tuple[float, float]:
    N = float(1 << n)
    return {
        "p": (0.0, 1.0),
        "cr": (0.0, float(n)),
        "cl1": (0.0, N - 1.0),
        "e2": (0.0, 1.0),
        "en": (0.0, 2.0),
        "d2": (0.0, 1.0),
        "dn": (0.0, 1.0),
        "m": (0.0, 2.0),
        "svet": (0.0, 4.0 * math.sqrt(2.0)),
    }[measure]


# ---------------------------------------------------------------- oracle


def grover_amplitudes(n: int, j: int, r: int) -> np.ndarray:
    """Statevector after r iterations from the uniform start, solutions 0..j-1."""
    amps = np.full(1 << n, 1.0 / math.sqrt(1 << n))
    for _ in range(r):
        amps[:j] = -amps[:j]
        amps = 2.0 * amps.mean() - amps
    return amps


def reduced(amps: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix of the kept qubits (qubit 0 = most significant bit)."""
    n = amps.size.bit_length() - 1
    k = len(keep)
    a = np.moveaxis(amps.reshape((2,) * n), keep, range(k)).reshape(1 << k, -1)
    return a @ a.conj().T


def _entropy(eigenvalues: np.ndarray) -> float:
    p = np.clip(eigenvalues, 0.0, None)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_PAULI = (np.array([[0.0, 1.0], [1.0, 0.0]]), _Y, np.array([[1.0, 0.0], [0.0, -1.0]]))


def concurrence(rho: np.ndarray) -> float:
    yy = np.kron(_Y, _Y)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ yy @ rho.conj() @ yy @ root), 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def chsh(rho: np.ndarray) -> float:
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in _PAULI] for a in _PAULI])
    u = np.sort(np.linalg.eigvalsh(t.T @ t))
    return float(u[-1] + u[-2])


def multiqubit_concurrence(amps: np.ndarray) -> float:
    """2/sqrt(N) sqrt(sum over proper subsets S of 1 - Tr rho_S^2).

    Tr rho_S^2 = Tr rho_{S^c}^2 for a pure state, so only the smaller side of
    each cut is enumerated.
    """
    n = amps.size.bit_length() - 1
    psi = amps.reshape((2,) * n)
    total = 0.0
    for k in range(1, n // 2 + 1):
        weight = 1.0 if 2 * k == n else 2.0
        for keep in itertools.combinations(range(n), k):
            a = np.moveaxis(psi, keep, range(k)).reshape(1 << k, -1)
            g = a @ a.conj().T
            total += weight * (1.0 - float(np.sum(np.abs(g) ** 2)))
    return 2.0 / math.sqrt(amps.size) * math.sqrt(max(total, 0.0))


def oracle_value(amps: np.ndarray, j: int, measure: str) -> float:
    probs = np.abs(amps) ** 2
    if measure == "p":
        return float(probs[:j].sum())
    if measure == "cr":
        return _entropy(probs)
    if measure == "cl1":
        return float(np.abs(amps).sum() ** 2 - probs.sum())
    if measure == "e2":
        return concurrence(reduced(amps, (0, 1)))
    if measure == "en":
        return multiqubit_concurrence(amps)
    if measure == "dn":
        return _entropy(np.linalg.eigvalsh(reduced(amps, (0,))))
    if measure == "m":
        return chsh(reduced(amps, (0, 1)))
    raise ValueError(f"no oracle for {measure!r}")


# ------------------------------------------------------------- optimizers


def check_optimizer_result(measure: str, result, reported: float, tol: float) -> list:
    """A recomputed optimizer result must have converged and match the output."""
    failures = []
    if not result.converged:
        failures.append(f"{measure}: optimizer did not converge ({result.optimizer_evals} evals)")
    if not abs(result.value - reported) <= tol + CSV_RELATIVE_ROUNDING * abs(reported):
        failures.append(f"{measure}: recomputed {result.value!r} but output has {reported!r}")
    return failures


def _recompute_optimizer(params: dict, j: int, r: int, measure: str, engine: str):
    from groverlab.discord import pairwise_discord, pairwise_discord_ga
    from groverlab.grover import GroverConfig
    from groverlab.linalg import DensityMatrix
    from groverlab.nonlocality import svetlichny_max, svetlichny_max_ga
    from groverlab.optimizers import OptimizerConfig

    config = OptimizerConfig(restarts=params["restarts"], seed=params["seed"])
    n = params["n"]
    if engine == "analytic":
        cfg = GroverConfig(n=n, j=j)
        fn = pairwise_discord_ga if measure == "d2" else svetlichny_max_ga
        return fn(cfg, r, config), 0.0
    amps = grover_amplitudes(n, j, r)
    keep = (0, 1) if measure == "d2" else (0, 1, 2)
    rho = DensityMatrix(reduced(amps, keep).astype(complex))
    fn = pairwise_discord if measure == "d2" else svetlichny_max
    return fn(rho, config), OPTIMIZER_REPRODUCE_TOL


# ------------------------------------------------------------------- ga


def _parse_csv(text: str):
    meta = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    if i == len(lines):
        return meta, [], []
    return meta, lines[i].split(","), [line.split(",") for line in lines[i + 1 :]]


def _load_ga(path: Path, fmt: str):
    """(engines, header, columns) with NA/null as NaN."""
    text = path.read_text()
    if fmt == "json":
        doc = json.loads(text)
        engines = doc["metadata"]["engines"]
        rows = doc["rows"]
        header = list(rows[0].keys()) if rows else []
        columns = {
            c: np.array([np.nan if row.get(c) is None else row[c] for row in rows], dtype=float)
            for c in header
        }
        return engines, header, columns, len(rows)
    meta, header, rows = _parse_csv(text)
    engines = {k[len("engine.") :]: v for k, v in meta.items() if k.startswith("engine.")}
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV rows")
    table = np.array(rows, dtype=object).reshape(len(rows), len(header))
    columns = {}
    for index, c in enumerate(header):
        col = table[:, index]
        columns[c] = np.array([np.nan if v == "NA" else float(v) for v in col], dtype=float)
    return engines, header, columns, len(rows)


def check_ga(params: dict, path: Path, rng: np.random.Generator) -> tuple[list, int]:
    n, js = params["n"], params["js"]
    measures = [m for m in CANONICAL_ORDER if m in params["measures"]]
    # CSV drops the j column for a single j; JSON rows always carry it.
    expected = (["j"] if len(js) > 1 or params["fmt"] == "json" else []) + ["r", "p"] + measures
    engines, header, columns, nrows = _load_ga(path, params["fmt"])
    if header != expected:
        return [f"header {header} != expected {expected}"], nrows
    failures = []
    limits = {j: r_opt(n, j) if params["r_max"] is None else min(params["r_max"], r_opt(n, j)) for j in js}
    want_j = np.concatenate([np.full(limits[j] + 1, j) for j in js])
    want_r = np.concatenate([np.arange(limits[j] + 1) for j in js])
    got_j = columns["j"] if "j" in columns else np.full(nrows, js[0])
    if nrows != want_r.size or not (np.array_equal(got_j, want_j) and np.array_equal(columns["r"], want_r)):
        return [f"{nrows} rows, expected r = 0..r_opt per j ({want_r.size} rows)"], nrows
    for j in js:
        block = got_j == j
        alpha = 2.0 * math.atan2(math.sqrt(j), math.sqrt((1 << n) - j))
        want_p = np.sin((want_r[block] + 0.5) * alpha) ** 2
        tol = IDENTITY_TOLERANCES["success_probability"] + CSV_RELATIVE_ROUNDING * want_p
        if not np.all(np.abs(columns["p"][block] - want_p) <= tol):
            failures.append(f"j={j} p: differs from sin^2((r+1/2) alpha) on some row")
        for m in ["p"] + measures:
            engine = engines.get(f"j{j}.{m}")
            values = columns[m][block]
            if engine not in ("analytic", "oracle", "unavailable"):
                failures.append(f"j={j} {m}: engine metadata {engine!r}")
            elif engine != "unavailable" and np.isnan(values).any():
                failures.append(f"j={j} {m}: NA in a column the {engine} engine claims")
            lo, hi = physical_range(m, n)
            finite = values[~np.isnan(values)]
            if finite.size and (finite.min() < lo - SLACK or finite.max() > hi + SLACK):
                failures.append(f"j={j} {m}: value outside the physical range [{lo}, {hi}]")
        if n > CAPACITY_QUBITS:
            continue
        rows = np.flatnonzero(block)
        sample = sorted(rng.choice(rows, size=min(SAMPLE_ROWS_PER_J, rows.size), replace=False))
        for row in sample:
            r = int(columns["r"][row])
            amps = grover_amplitudes(n, j, r)
            for m in ["p"] + measures:
                reported = float(columns[m][row])
                if np.isnan(reported):
                    continue
                if m in OPTIMIZER_MEASURES:
                    if row != sample[0]:
                        continue  # one optimizer rerun per series keeps checking cheap
                    result, tol = _recompute_optimizer(params, j, r, m, engines.get(f"j{j}.{m}"))
                    failures += [f"j={j} r={r} {f}" for f in check_optimizer_result(m, result, reported, tol)]
                    continue
                ref = oracle_value(amps, j, m)
                tol = IDENTITY_TOLERANCES[MEASURE_IDENTITY[m]] + CSV_RELATIVE_ROUNDING * abs(ref)
                if not abs(reported - ref) <= tol:
                    failures.append(f"j={j} r={r} {m}: {reported!r} vs oracle {ref!r} (tol {tol:.1e})")
    return failures, nrows


# ------------------------------------------------------------------ gga


def check_gga_phi(params: dict, path: Path) -> tuple[list, int]:
    meta, header, rows = _parse_csv(path.read_text())
    if header != ["phi0", "r_opt", "delta_cr", "p_max"]:
        return [f"header {header}"], len(rows)
    if len(rows) != params["phi_points"]:
        return [f"{len(rows)} rows, expected {params['phi_points']}"], len(rows)
    N = 1 << params["n"]
    table = np.array(rows, dtype=float)
    phi0, t, delta, pmax = table.T
    failures = []
    if not np.allclose(phi0, np.linspace(0.0, 1.0 / math.sqrt(N), len(rows)), rtol=1e-11, atol=0.0):
        failures.append("phi0 grid differs from linspace(0, 1/sqrt(N))")
    # Two solutions phi0, phi1 with phi0^2 + phi1^2 = 2/N over a uniform tail:
    # the peak probability is exactly 1 at t = (pi/2 - beta)/omega.
    phi1 = np.sqrt(np.clip(2.0 / N - phi0**2, 0.0, None))
    omega = math.acos(1.0 - 4.0 / N)
    beta = np.arctan2(math.sqrt(2.0) * 0.5 * (phi0 + phi1), math.sqrt(N - 2.0) / math.sqrt(N))
    want_t = (math.pi / 2.0 - beta) / omega
    if not np.allclose(t, want_t, rtol=1e-9, atol=1e-9):
        failures.append("r_opt differs from (pi/2 - beta)/omega")
    if np.abs(pmax - 1.0).max() > 1e-9:
        failures.append("p_max of the phi family is not 1")
    if delta.min() < -SLACK or delta.max() > params["n"] + SLACK:
        failures.append("delta_cr outside [0, n]")
    return failures, len(rows)


def _evolve(doc: dict, steps: int):
    N = 1 << doc["n"]
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    mask = np.zeros(N, dtype=bool)
    mask[doc["solutions"]] = True
    k, l = amps[mask], amps[~mask]
    out = [(k, l)]
    for _ in range(steps):
        k = -k
        avg = (k.sum() + l.sum()) / N
        k, l = 2.0 * avg - k, 2.0 * avg - l
        out.append((k, l))
    return out


def check_gga_init(params: dict, path: Path) -> tuple[list, int]:
    start = json.loads(Path(params["path"]).read_text())
    doc = json.loads(path.read_text())
    rows, meta = doc["rows"], doc["metadata"]
    r_max = params["r_max"]
    if [row["r"] for row in rows] != list(range(r_max + 1)):
        return [f"rows r = {[row['r'] for row in rows][:5]}..., expected 0..{r_max}"], len(rows)
    t = meta["optimal_time"]
    steps = _evolve(start, max(r_max, math.ceil(t)))
    failures = []
    is_real = all(im == 0.0 for _, im in start["amplitudes"])
    if meta["optimal_time_method"] != ("closed-form" if is_real else "scan"):
        failures.append(f"optimal_time_method {meta['optimal_time_method']!r} for a {'real' if is_real else 'complex'} start")
    log = meta["amplitudes_per_step"]
    if len(log) != r_max + 1:
        failures.append(f"{len(log)} logged steps, expected {r_max + 1}")
    for r, (row, entry) in enumerate(zip(rows, log)):
        k, l = steps[r]
        got_k = np.array([complex(re, im) for re, im in entry["solution_amplitudes"]])
        got_l = np.array([complex(re, im) for re, im in entry["other_amplitudes"]])
        p = float(np.sum(np.abs(k) ** 2))
        if got_k.shape != k.shape or got_l.shape != l.shape or max(
            np.abs(got_k - k).max(), np.abs(got_l - l).max()
        ) > 1e-10:
            failures.append(f"r={r}: logged amplitudes differ from the iteration")
            break
        if abs(row["p"] - p) > 1e-10 or abs(complex(row["kbar_re"], row["kbar_im"]) - k.mean()) > 1e-10:
            failures.append(f"r={r}: p or kbar differs from the iteration")
            break
    p_at = lambda r: float(np.sum(np.abs(steps[r][0]) ** 2))
    if abs(meta["p_floor"] - p_at(math.floor(t))) > 1e-10 or abs(meta["p_ceil"] - p_at(math.ceil(t))) > 1e-10:
        failures.append("p_floor/p_ceil differ from the iteration at the optimal time")
    if max(row["p"] for row in rows) > meta["p_max"] + 1e-9:
        failures.append("a step exceeds the p_max bound")
    return failures, len(rows)


def check_verify(params: dict, path: Path) -> tuple[list, int]:
    doc = json.loads(path.read_text())
    rows = doc["rows"]
    failures = []
    if doc["metadata"].get("passed") is not True:
        failures.append("verify reported passed=false")
    failures += [f"identity {row['name']} failed" for row in rows if row["passed"] is not True]
    if not rows:
        failures.append("no identity rows")
    return failures, len(rows)


def check(op: dict, path: Path | None, rng: np.random.Generator) -> tuple[list, int]:
    """Failures and row count of one op's output."""
    if path is None or not path.exists():
        return ["no output"], 0
    kind, params = op["kind"], op["params"]
    try:
        if kind == "ga":
            return check_ga(params, path, rng)
        if kind == "gga_phi":
            return check_gga_phi(params, path)
        if kind == "gga_init":
            return check_gga_init(params, path)
        if kind == "verify":
            return check_verify(params, path)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0
    raise ValueError(f"unknown op kind {kind!r}")
