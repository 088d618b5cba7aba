"""Witnesses that the package itself no longer needs.

The identity suite works on amplitudes, so these general-state routines
live here, where tests use them as independent checks of the pure-state
and closed-form paths. The GGA closed-form averages, the phi-family state
pair, the continuous-time GGA success probability, the complex-start
scan with one scalar p(t) per grid point (`scalar_scan`), the dense GA
projector, the quantum relative entropy and the Svetlichny expectation of
given settings are here for the same reason:
only tests compare with them. So is the projector form of the discord's
conditional entropy (`projector_conditional_entropy`), which the Bloch-block
kernel replaced. So is the row-by-row CSV/JSON writer that the
columnar one in `groverlab.report` replaced, and the per-subset purity that
the stacked-Gram `en` oracle replaced, with two whole-register `en`
references built on it and on the benchmark checker's enumeration. So is
the stacked oracle's loop with one Gram per cut
(`enumerated_multiqubit_concurrence`), which one Gram per class of
equivalent cuts replaced: it is the oracle's bit-for-bit reference. The
one-statevector oracles that the series-stacked ones replaced are here
too (`row_oracle`), as the bit-for-bit reference of each stack row, and so
is the row-by-row identity loop (`row_check_series`) that `verify` ran,
which reduces every k-subset of each row where `verify` reduces one subset
per class of cuts. Its reduction check with every subset reduced and every
purity deficit added on its own (`every_subset_deviations`) needs no class
at all.
The phi family's materialized start (`phi_family_distribution`), which the
closed-form phi sweep replaced, is the general-path reference of that
sweep, and the one-r partition minimum (`row_partition_minimum`) is that
of the stacked one. The one-tensor Svetlichny ascent (`row_svetlichny_max`)
is the reference of every row of the lockstep stack search, and the
singular-value bound (`svetlichny_upper_bound`) caps every value it finds.
"""

import itertools
import json
import math
from dataclasses import fields, replace

import numpy as np

from groverlab import __version__
from groverlab.bruteforce import MEASURES, _or_inf, evolve
from groverlab.discord import _partitions_with_two_parts, genuine_discord_ga
from groverlab.entanglement import _YY, BLOCK_AMPLITUDES, RADICAND_TOL, _cut_places, _multiqubit_radicand, _spread
from groverlab.errors import CapacityError, NumericalConsistencyError
from groverlab.gga import (
    AmplitudeDistribution,
    GGAClosedForm,
    PhiFamily,
    _success_envelope,
    gga_iterate,
)
from groverlab.grover import (
    CAPACITY_QUBITS,
    GroverConfig,
    SymmetricGAState,
    _reduced_matrix,
    optimal_iterations,
    reduced_density,
    state_at,
)
from groverlab.linalg import (
    NORM_TOL,
    DensityMatrix,
    PureState,
    _check_keep,
    _clip_spectrum,
    _schmidt_gram,
    pure_subsystem_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from groverlab.nonlocality import _PAIR_OPS, CorrelationTensor, SvetlichnySettings
from groverlab.optimizers import OptimizerConfig
from groverlab.report import _format_value, base_metadata, write


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def full_density(cfg: GroverConfig, st: SymmetricGAState) -> DensityMatrix:
    """Rank-1 projector onto the GA state of a scalar state: a/sqrt(j) on solutions, b elsewhere."""
    if cfg.n > CAPACITY_QUBITS:
        raise CapacityError(f"n={cfg.n} exceeds the dense limit {CAPACITY_QUBITS}; use reduced_density")
    amps = np.full(cfg.database_size, st.b, dtype=complex)
    amps[list(cfg.solutions)] = st.a / math.sqrt(cfg.j)
    return DensityMatrix(np.outer(amps, amps.conj()))


def n_qubits(rho: DensityMatrix) -> int:
    n = rho.dim.bit_length() - 1
    if 1 << n != rho.dim:
        raise ValueError(f"dimension {rho.dim} is not a power of two")
    return n


def gga_success_probability_at(dist0: AmplitudeDistribution, t: float) -> float:
    """Success probability at continuous time t from the sinusoidal averages."""
    return _success_envelope(dist0)(t)


def scalar_scan(dist0: AmplitudeDistribution) -> tuple:
    """(grid index, optimal time, p at each grid point) of the complex-start scan with one scalar p(t)
    call per grid point, as `gga_optimal_time` ran it before one vector pass took the grid: the first
    argmax over the 4,097 points, then the ternary search on the bracket around it."""
    p_at = _success_envelope(dist0)
    grid = np.linspace(0.0, math.pi / dist0.omega, 4097).tolist()
    values = [p_at(x) for x in grid]
    best = int(np.argmax(values))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if p_at(m1) < p_at(m2):
            lo = m1
        else:
            hi = m2
    return best, 0.5 * (lo + hi), np.array(values)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce an n-qubit state to the qubits in `keep` (strictly increasing)."""
    n = n_qubits(rho)
    keep = _check_keep(n, keep)
    if len(keep) == n:
        return rho
    tensor = rho.matrix.reshape((2,) * (2 * n))
    row_idx = list(range(n))
    col_idx = [n + q if q in keep else q for q in range(n)]
    out_idx = [q for q in keep] + [n + q for q in keep]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    k = len(keep)
    return DensityMatrix(reduced.reshape(2**k, 2**k))


def pure_subsystem_purity(amplitudes: np.ndarray, keep) -> float:
    """Tr(rho_keep^2) for a pure state, via the smaller Gram factor."""
    return float(np.sum(np.abs(_schmidt_gram(amplitudes, keep)) ** 2))


def subset_concurrence(amplitudes: np.ndarray) -> float:
    """2/sqrt(N) sqrt(sum of 1 - Tr rho_S^2 over every proper subset S), one subset per call."""
    amps = np.asarray(amplitudes, dtype=complex)
    n = amps.size.bit_length() - 1
    radicand = sum(
        1.0 - pure_subsystem_purity(amps, keep)
        for k in range(1, n)
        for keep in itertools.combinations(range(n), k)
    )
    return 2.0 / math.sqrt(amps.size) * math.sqrt(max(radicand, 0.0))


def checker_grover_amplitudes(n: int, j: int, r: int) -> np.ndarray:
    """Real statevector after r steps from the uniform start, solutions 0..j-1, stepped
    as the benchmark's checker steps it."""
    amps = np.full(1 << n, 1.0 / math.sqrt(1 << n))
    for _ in range(r):
        amps[:j] = -amps[:j]
        amps = 2.0 * amps.mean() - amps
    return amps


def checker_concurrence(amplitudes: np.ndarray) -> float:
    """The benchmark checker's `en`: real amplitudes, the smaller side of each cut,
    a @ a.T per cut, the deficits added in enumeration order."""
    amps = np.asarray(amplitudes, dtype=float)
    n = amps.size.bit_length() - 1
    psi = amps.reshape((2,) * n)
    total = 0.0
    for k in range(1, n // 2 + 1):
        weight = 1.0 if 2 * k == n else 2.0
        for keep in itertools.combinations(range(n), k):
            a = np.moveaxis(psi, keep, range(k)).reshape(1 << k, -1)
            total += weight * (1.0 - float(np.sum(np.abs(a @ a.T) ** 2)))
    return 2.0 / math.sqrt(amps.size) * math.sqrt(max(total, 0.0))


def coherence_relative_entropy(rho: DensityMatrix) -> float:
    """S(rho_diag) - S(rho): distance to the nearest incoherent state, in bits."""
    diag = np.clip(rho.matrix.diagonal().real, 0.0, None)
    return max(0.0, shannon_entropy(diag) - von_neumann_entropy(rho))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho log2 rho - rho log2 sigma); +inf when supp(rho) leaves supp(sigma)."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    pr, vr = np.linalg.eigh(rho.matrix)
    ps, vs = np.linalg.eigh(sigma.matrix)
    pr = _clip_spectrum(pr, "relative_entropy first argument")
    ps = _clip_spectrum(ps, "relative_entropy second argument")
    overlap = np.abs(vr.conj().T @ vs) ** 2  # overlap[i, j] = |<r_i|s_j>|^2
    sigma_null = ps <= NORM_TOL
    if np.any(sigma_null):
        leak = float(pr @ overlap[:, sigma_null].sum(axis=1))
        if leak > 1e-10:
            return math.inf
    term_rho = float(np.sum(pr[pr > 0.0] * np.log2(pr[pr > 0.0])))
    support = ~sigma_null
    cross = float((pr @ overlap[:, support]) @ np.log2(ps[support]))
    return max(0.0, term_rho - cross)


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    m = np.abs(rho.matrix)
    return max(0.0, float(m.sum() - m.trace()))


def closed_form_averages(cf: GGAClosedForm, j: int, N: int, r: float) -> tuple[float, float]:
    """(kbar, lbar) predicted at (possibly continuous) iteration r."""
    phase = cf.omega * r + cf.beta
    return (
        cf.C / math.sqrt(j) * math.sin(phase),
        cf.C / math.sqrt(N - j) * math.cos(phase),
    )


def phi_family_distribution(fam: PhiFamily) -> AmplitudeDistribution:
    """phi0|0> + phi1|1> + uniform tail as all N amplitudes, with solutions 0 and 1."""
    amps = np.full(fam.N, 1.0 / math.sqrt(fam.N), dtype=complex)
    amps[0] = fam.phi0
    amps[1] = fam.phi1
    return AmplitudeDistribution(amps, (0, 1))


def phi_family_states(fam: PhiFamily) -> tuple[PureState, PureState]:
    """(initial state as a length-N vector, optimal-time state k1|0> + k2|1>)."""
    return phi_family_distribution(fam), PureState(np.array([fam.k1, fam.k2], dtype=complex))


def svetlichny_expectation(tensor: CorrelationTensor, settings: SvetlichnySettings) -> float:
    """<S> = ABC + ABC' + AB'C - AB'C' + A'BC - A'BC' - A'B'C - A'B'C'.

    Every term is a full-weight Pauli product, so the expectation depends on
    the state only through the tripartite correlation tensor.
    """
    if tensor.order != 3:
        raise ValueError("Svetlichny expectation needs an order-3 tensor")
    T = tensor.entries
    s = settings
    triple = lambda x, y, z: float(np.einsum("ijk,i,j,k->", T, x, y, z))
    return (
        triple(s.a, s.b, s.c) + triple(s.a, s.b, s.c_prime)
        + triple(s.a, s.b_prime, s.c) - triple(s.a, s.b_prime, s.c_prime)
        + triple(s.a_prime, s.b, s.c) - triple(s.a_prime, s.b, s.c_prime)
        - triple(s.a_prime, s.b_prime, s.c) - triple(s.a_prime, s.b_prime, s.c_prime)
    )


def svetlichny_upper_bound(tensor: CorrelationTensor) -> np.ndarray:
    """4 min over parties of sigma_max(M), M the 3 x 9 unfolding of one party's index against the other two.

    <S> = a.M u + a'.M u' with |u| = |u'| = 2, so max <S> <= 4 sigma_max(M)
    for each party (M. Li et al., PRA 96, 042323, 2017); GHZ attains 4 sqrt 2.
    One bound per order-3 tensor of a stack.
    """
    T = tensor.entries
    sigmas = [
        np.linalg.norm(np.moveaxis(T, party - 3, -3).reshape(*T.shape[:-3], 3, 9), ord=2, axis=(-2, -1))
        for party in range(3)
    ]
    return 4.0 * np.min(sigmas, axis=0)


def projector_conditional_entropy(rho: np.ndarray, theta, phi) -> np.ndarray:
    """sum_i p_i S(rho_{A|i}) of a two-qubit state, B measured at each (theta, phi) of two equal-shape arrays.

    The measurement is the basis {cos t|0> + e^{ip} sin t|1>, e^{-ip} sin t|0> - cos t|1>},
    of Bloch vector (sin 2t cos p, sin 2t sin p, cos 2t). Each outcome's
    p_i rho_{A|i} = Tr_B[(1 x |v_i><v_i|) rho] is built from the projector and
    its entropy taken from eigvalsh.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    R = np.asarray(rho).reshape(2, 2, 2, 2)  # indices (a, b, a', b')
    basis = (
        np.stack([np.cos(theta) + 0j, np.exp(1j * phi) * np.sin(theta)], axis=-1),
        np.stack([np.exp(-1j * phi) * np.sin(theta), -np.cos(theta) + 0j], axis=-1),
    )
    total = np.zeros(theta.shape)
    for v in basis:
        m = np.einsum("abcd,...b,...d->...ac", R, v.conj(), v)
        lam = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        p = lam.sum(axis=-1, keepdims=True)
        ratio = np.where(lam > 0.0, lam / np.where(p > 0.0, p, 1.0), 1.0)
        total -= np.sum(lam * np.log2(ratio), axis=-1)
    return total


def sweep_rows(result) -> list:
    """A SweepResult's joined columns as one dict per row, with NA cells as None."""
    data = result.join()
    columns = [
        [None if na else v for v, na in zip(np.ma.getdata(c).tolist(), np.ma.getmaskarray(c).tolist())]
        for c in data.values()
    ]
    return [dict(zip(data, row)) for row in zip(*columns)]


def render_csv_rows(result, run) -> str:
    """The CSV writer as it was: one _format_value call per cell of each row dict."""
    lines = [f"# version={__version__}", f"# command={run.command}", f"# seed={run.seed}"]
    for key, value in result.engines.items():
        lines.append(f"# engine.{key}={value}")
    for key, value in result.extra_metadata.items():
        if isinstance(value, (dict, list)):
            lines.append(f"# {key}={json.dumps(value, separators=(',', ':'))}")
        else:
            lines.append(f"# {key}={_format_value(value)}")
    lines.append(",".join(result.columns))
    for row in sweep_rows(result):
        lines.append(",".join(_format_value(row.get(c)) for c in result.columns))
    return "\n".join(lines) + "\n"


def _plain(obj):
    """obj with every array as lists and every non-finite float as its CSV token, a string."""
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan"
    return obj


def written(result, run) -> str:
    """The document that `report.write` passes to its write callable, its pieces joined."""
    pieces = []
    write(result, run, pieces.append)
    return "".join(pieces)


def render_json_rows(result, run) -> str:
    """The JSON writer as json.dumps(doc, indent=2) over row dicts, every array as lists and every
    non-finite float as its CSV token."""
    doc = {
        "config": run.to_dict(),
        "rows": sweep_rows(result),
        "metadata": {**base_metadata(run, result.engines), **result.extra_metadata},
    }
    return json.dumps(_plain(doc), indent=2) + "\n"


# One statevector at a time: the oracles as they were before they took a
# series' amplitude stack. Each stack row must equal these bit for bit.


def bits(values):
    """Each value's exact binary form; -0.0, 0.0 and the last bit all differ."""
    return [float(v).hex() for v in np.ravel(values).tolist()]


def row_state(st: SymmetricGAState, i: int) -> SymmetricGAState:
    """Row i of a series state as a state of its own, every field sliced."""
    return replace(st, **{f.name: getattr(st, f.name)[i] for f in fields(st)})


def row_partial_trace(amplitudes: np.ndarray, keep) -> DensityMatrix:
    """Reduced state of one pure state: the split amplitudes times their adjoint."""
    amps = np.asarray(amplitudes, dtype=complex)
    n = amps.size.bit_length() - 1
    keep = _check_keep(n, keep)
    k = len(keep)
    a = np.moveaxis(amps.reshape((2,) * n), keep, range(k)).reshape(2**k, -1)
    if a.shape[1] == 1:
        return DensityMatrix.from_pure(a.reshape(-1))
    return DensityMatrix(a @ a.conj().T)


def row_shannon_entropy(probabilities: np.ndarray) -> float:
    p = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    p = p[p > 0.0]
    return float(max(0.0, -np.sum(p * np.log2(p))))


def row_concurrence_two_qubit(rho2: DensityMatrix) -> float:
    m = rho2.matrix
    tilde = _YY @ m.conj() @ _YY
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    sqrt_m = (v * np.sqrt(w)) @ v.conj().T
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(sqrt_m @ tilde @ sqrt_m), 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def row_chsh_M(rho2: DensityMatrix) -> float:
    t = np.einsum("ijab,ba->ij", _PAIR_OPS, rho2.matrix).real
    u = np.sort(np.linalg.eigvalsh(t.T @ t))
    return float(u[-1] + u[-2])


def row_multiqubit_concurrence(amplitudes: np.ndarray) -> float:
    """The stacked-Gram `en` oracle on one statevector."""
    amps = np.asarray(amplitudes, dtype=complex)
    n = amps.size.bit_length() - 1
    if not amps.imag.any():
        amps = np.ascontiguousarray(amps.real)
    block = max(1, BLOCK_AMPLITUDES >> n)
    deficits = []
    for k in range(1, n // 2 + 1):
        keep, rest = _cut_places(n, k)
        rows, cols = _spread(keep, n), _spread(rest, n)
        for start in range(0, rows.shape[0], block):
            cuts = slice(start, start + block)
            a = amps.take(rows[cuts, :, None] + cols[cuts, None, :])
            g = a @ a.conj().swapaxes(1, 2)
            deficits.append(1.0 - (g * g.conj()).real.sum(axis=(1, 2)))
    radicand = 2.0 * float(np.concatenate(deficits).sum()) if deficits else 0.0
    if radicand < -RADICAND_TOL:
        raise NumericalConsistencyError(f"negative radicand {radicand:.3e}")
    return 2.0 / math.sqrt(amps.size) * math.sqrt(max(radicand, 0.0))


def enumerated_deficit_sums(states: np.ndarray, n: int) -> np.ndarray:
    """Each row's sum of 1 - Tr rho_S^2 over the cuts of _cut_places, in their order, one Gram per cut."""
    pairs = max(1, BLOCK_AMPLITUDES >> n)  # (cut, row) pairs per gather
    sums = []
    for first in range(0, states.shape[0], pairs):
        rows = states[first : first + pairs]
        block = max(1, pairs // rows.shape[0])
        deficits = []
        for k in range(1, n // 2 + 1):
            keep, rest = _cut_places(n, k)
            keep, rest = _spread(keep, n), _spread(rest, n)
            for start in range(0, keep.shape[0], block):
                cuts = slice(start, start + block)
                a = rows.take(keep[cuts, :, None] + rest[cuts, None, :], axis=1)
                g = a @ a.conj().swapaxes(-1, -2)
                deficits.append(1.0 - (g * g.conj()).real.sum(axis=(-2, -1)))
        sums.append(np.concatenate(deficits, axis=1).sum(axis=1))
    return np.concatenate(sums)


def enumerated_multiqubit_concurrence(amplitudes: np.ndarray) -> np.ndarray:
    """The `en` oracle as it was before it formed one Gram per class of equivalent cuts."""
    amps = np.asarray(amplitudes, dtype=complex)
    size = amps.shape[-1]
    n = size.bit_length() - 1
    states = amps.reshape(-1, size)
    radicand = np.zeros(states.shape[0])
    real = ~states.imag.any(axis=1)
    for rows, group in ((real, states.real), (~real, states)):
        if rows.any() and n > 1:
            radicand[rows] = 2.0 * enumerated_deficit_sums(np.ascontiguousarray(group[rows]), n)
    return (2.0 / math.sqrt(size) * np.sqrt(np.maximum(radicand, 0.0))).reshape(amps.shape[:-1])


def row_oracle(key: str, amps: np.ndarray, cfg: GroverConfig) -> float:
    """The oracle of a fast measure on one statevector."""
    if key == "p":
        return float((np.abs(amps[list(cfg.solutions)]) ** 2).sum())
    if key == "cr":
        return row_shannon_entropy(np.abs(amps) ** 2)
    if key == "cl1":
        return float(np.square(np.abs(amps).sum()) - (np.abs(amps) ** 2).sum())
    if key == "e2":
        return row_concurrence_two_qubit(row_partial_trace(amps, (0, 1)))
    if key == "en":
        return row_multiqubit_concurrence(amps)
    if key == "dn":
        return row_shannon_entropy(np.linalg.eigvalsh(row_partial_trace(amps, (0,)).matrix))
    if key == "m":
        return row_chsh_M(row_partial_trace(amps, (0, 1)))
    raise KeyError(key)


def row_svetlichny_max(tensor: CorrelationTensor, config: OptimizerConfig) -> tuple:
    """The Svetlichny ascent on one tensor, its restarts batched, as it ran before
    stacks were searched in lockstep: (value, the six settings vectors stacked,
    optimizer_evals, converged)."""

    def contract(T, y, z):  # w[r, i] = sum_jk T[i, j, k] y[r, j] z[r, k]
        m = T[None, :, :, 0] * z[:, None, None, 0]
        for k in (1, 2):
            m = m + T[None, :, :, k] * z[:, None, None, k]
        w = m[:, :, 0] * y[:, None, 0]
        for j in (1, 2):
            w = w + m[:, :, j] * y[:, None, j]
        return w

    def party_fields(T, q, r):
        s, d = r[:, 0] + r[:, 1], r[:, 0] - r[:, 1]
        v = contract(T, q[:, 0], s) + contract(T, q[:, 1], d)
        return np.stack([v, contract(T, q[:, 0], d) - contract(T, q[:, 1], s)], axis=1)

    def dot(u, v):
        return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]

    tensors = [np.moveaxis(tensor.entries, party, 0) for party in range(3)]
    vecs = np.stack([np.random.default_rng([config.seed, i]).normal(size=(3, 2, 3)) for i in range(config.restarts)])
    vecs /= np.sqrt(dot(vecs, vecs))[..., None]
    fields = party_fields(tensors[0], vecs[:, 1], vecs[:, 2])
    values = dot(vecs[:, 0, 0], fields[:, 0]) + dot(vecs[:, 0, 1], fields[:, 1])
    sweeps, converged = np.zeros(config.restarts, dtype=int), np.zeros(config.restarts, dtype=bool)
    active = np.arange(config.restarts)
    for _ in range(config.refine_maxiter):
        x = vecs[active]
        for party, (q, r) in enumerate(((1, 2), (0, 2), (0, 1))):
            fields = party_fields(tensors[party], x[:, q], x[:, r])
            norms = np.sqrt(dot(fields, fields))
            nonzero = norms > 0.0
            x[:, party] = np.where(nonzero[..., None], fields / np.where(nonzero, norms, 1.0)[..., None], x[:, party])
        done = np.max(np.abs(x - vecs[active]), axis=(1, 2, 3)) <= config.refine_tol
        vecs[active] = x
        values[active] = norms[:, 0] + norms[:, 1]
        sweeps[active] += 1
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    best = int(np.argmax(values))
    return float(values[best]), vecs[best].reshape(6, 3), int(sweeps.sum()), bool(converged[best])


def row_partition_minimum(cfg: GroverConfig, r: int) -> tuple:
    """(half the least block-entropy sum over the partitions of n, the first partition
    that attains it, S(rho_k) by block size k), from one r's reduced matrices."""
    st = state_at(cfg, r)
    half = [None] + [
        row_shannon_entropy(np.linalg.eigvalsh(reduced_density(cfg, st, k).matrix)) for k in range(1, cfg.n // 2 + 1)
    ]
    entropy = {k: half[min(k, cfg.n - k)] for k in range(1, cfg.n)}
    totals = [(sum(entropy[k] for k in parts), parts) for parts in _partitions_with_two_parts(cfg.n)]
    total, parts = min(totals, key=lambda pair: pair[0])
    return total / 2.0, parts, entropy


def every_subset_matrices(n: int, row: SymmetricGAState, amps: np.ndarray, k: int) -> tuple:
    """(the structured k-qubit matrix of one statevector, the matrix of every k-subset of
    its amplitudes), the generic cut range(k) first."""
    subsets = itertools.combinations(range(n), k)
    return _reduced_matrix(n, row, k), [row_partial_trace(amps, keep).matrix for keep in subsets]


def every_subset_deviations(cfg: GroverConfig, amps: np.ndarray) -> dict:
    """The `reduced_density` and `multiqubit_concurrence_forms` deviations of a j = 1 series
    stack, row by row, with every k-subset reduced: for each r and k the generic cut's
    deviation, then the largest over every k-subset; for each r the radicand's gap to the
    sum of 1 - Tr rho_S^2 over every proper subset S, one term per subset."""
    n = cfg.n
    st = state_at(cfg, np.arange(amps.shape[0]))
    deviations = {"reduced_density": [], "multiqubit_concurrence_forms": []}
    for r, row_amps in enumerate(amps):
        row = row_state(st, r)
        deficits = 0.0
        for k in range(1, n):
            structured, matrices = every_subset_matrices(n, row, row_amps, k)
            gaps = [float(np.max(np.abs(structured - m))) for m in matrices]
            deviations["reduced_density"] += [gaps[0], max(gaps)]
            deficits += sum(1.0 - float(np.sum(np.abs(m) ** 2)) for m in matrices)
        deviations["multiqubit_concurrence_forms"].append(abs(float(_multiqubit_radicand(n, row)) - deficits))
    return deviations


def row_check_series(cfg: GroverConfig, requested: bool, uniform: bool, fault: float, deviations) -> None:
    """`bruteforce._check_series` as a loop over rows: one statevector stepped through the series."""
    n, j = cfg.n, cfg.j
    st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
    if fault:
        st = replace(st, a=st.a + fault)
    keys = [k for k, m in MEASURES.items() if requested and m.identity and m.engine(cfg) == "analytic"]
    closed = {k: np.broadcast_to(_or_inf(MEASURES[k].closed_form, cfg, st, None), st.r.shape) for k in keys}
    dist = evolve(cfg, 0)
    for r in st.r.tolist():
        if r > 0:
            dist = gga_iterate(dist, 1)
        row = row_state(st, r)
        if uniform:
            deviations["gga_uniform_equivalence"].append(
                max(
                    float(np.max(np.abs(dist.solution_amplitudes - row.a / math.sqrt(j)))),
                    float(np.max(np.abs(dist.other_amplitudes - row.b))),
                )
            )
        if not requested:
            continue
        amps = dist.amplitudes
        oracle = {key: row_oracle(key, amps, cfg) for key in keys}
        if "cr" in oracle:
            oracle["cr"] -= pure_subsystem_entropy(amps, range(n))
        for key in keys:
            deviations[MEASURES[key].identity].append(abs(float(closed[key][r]) - oracle[key]))
        deviations["grover_step_norm"].append(abs(float(np.sum(np.abs(amps) ** 2)) - 1.0))
        deviations["normalization"].append(abs(np.square(row.a) + (cfg.database_size - j) * np.square(row.b) - 1.0))
        if j != 1:
            continue
        partition, _, _ = row_partition_minimum(cfg, r)
        deviations["partition_minimum"].append(abs(partition - _or_inf(genuine_discord_ga, cfg, row)))
        deficits = 0.0
        for k in range(1, n):
            structured, matrices = every_subset_matrices(n, row, amps, k)
            gaps = [float(np.max(np.abs(structured - m))) for m in matrices]
            deviations["reduced_density"] += [gaps[0], max(gaps)]
            # each distinct matrix once, times the number of subsets that have it, in the order first seen
            distinct = {}
            for m in matrices:
                distinct.setdefault(m.tobytes(), [m, 0])[1] += 1
            for m, count in distinct.values():
                deficits += count * (1.0 - float(np.sum(np.abs(m) ** 2)))
        deviations["multiqubit_concurrence_forms"].append(abs(float(_multiqubit_radicand(n, row)) - deficits))
