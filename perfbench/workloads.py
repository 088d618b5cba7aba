"""The benchmark's four workloads and the inputs they are built from.

Each workload is a fixed list of CLI operations ("ops"), run in sequence by
one client. The seed changes only what does not change the amount of work:
the op order, the optimizer seed handed to the CLI and the amplitudes of the
generated ``--init-file`` documents. Every run of a workload therefore does
the same work, so runs with different seeds are comparable.

Why each workload exists, and which layers it stresses, is recorded in
NOTES.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The CLI's default `ga` measure set; columns follow CANONICAL_ORDER.
DEFAULT_GA_MEASURES = ("cr", "cl1", "e2", "en", "dn", "m")
CANONICAL_ORDER = ("cr", "cl1", "e2", "en", "d2", "dn", "m", "svet")
OPTIMIZER_MEASURES = ("d2", "svet")

WORKLOADS = ("analytic", "oracle", "optimizer", "gga")


@dataclass
class Op:
    """One `groverlab.cli.main([...])` invocation and what its output must satisfy."""

    label: str
    kind: str  # "ga", "gga_phi", "gga_init" or "verify"
    params: dict
    argv: list


def ga_op(n, js, measures=None, r_max=None, fmt="csv", seed=0, restarts=None) -> Op:
    argv = ["ga", "--n", str(n), "--j", _j_spec(js), "--seed", str(seed)]
    if measures is not None:
        argv += ["--measures", ",".join(measures)]
    if r_max is not None:
        argv += ["--r-max", str(r_max)]
    if restarts is not None:
        argv += ["--restarts", str(restarts)]
    if fmt != "csv":
        argv += ["--format", fmt]
    params = {
        "n": n,
        "js": list(js),
        "measures": list(measures or DEFAULT_GA_MEASURES),
        "r_max": r_max,
        "fmt": fmt,
        "seed": seed,
        "restarts": 64 if restarts is None else restarts,
    }
    label = " ".join(argv[:5] + argv[7:])
    return Op(label=label, kind="ga", params=params, argv=argv)


def _j_spec(js) -> str:
    js = list(js)
    if len(js) > 2 and js == list(range(js[0], js[-1] + 1)):
        return f"{js[0]}..{js[-1]}"
    return ",".join(str(j) for j in js)


def amplitude_document(rng: np.random.Generator, n: int, j: int, complex_phases: bool) -> dict:
    """A normalized start near the uniform state, with j random solution indices.

    Amplitudes are uniform times (1 + 0.3 g) with Gaussian g, so the search
    still amplifies the solutions; complex starts add phases of spread 0.5
    rad, which sends `gga` to its scan-based optimal-time fallback.
    """
    N = 1 << n
    amps = (1.0 + 0.3 * rng.standard_normal(N)).astype(complex)
    if complex_phases:
        amps *= np.exp(0.5j * rng.standard_normal(N))
    amps /= np.linalg.norm(amps)
    solutions = sorted(int(s) for s in rng.choice(N, size=j, replace=False))
    return {
        "n": n,
        "solutions": solutions,
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list:
    """The op list of one workload for one seed; writes any input files into workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    opt_seed = int(rng.integers(0, 2**31 - 1))
    if workload == "analytic":
        # Default measures at n = 20..25; n = 25 hits the `en` closed-form
        # crash at r = 0 and is kept so the failure stays counted.
        ns = (8, 9) if smoke else (20, 21, 22, 23, 24, 25)
        ops = [ga_op(n, (1,), r_max=100) for n in ns]
        ops.append(ga_op(12 if smoke else 30, range(1, 7), measures=("cr", "cl1")))
        ops.append(ga_op(12 if smoke else 28, (1,), measures=("cr", "cl1", "e2", "dn", "m"), fmt="json"))
    elif workload == "oracle":
        ops = [
            ga_op(6 if smoke else 12, (2,), r_max=1),
            ga_op(5 if smoke else 11, (2, 3), r_max=2),
            Op(
                label="verify",
                kind="verify",
                params={"max_n": 4 if smoke else 9},
                argv=["verify", "--max-n", str(4 if smoke else 9), "--seed", str(opt_seed)],
            ),
        ]
    elif workload == "optimizer":
        # The j=2 sweep uses 16 restarts: at 8, about 2 % of its svet rows
        # end with no restart converged, which would make failures depend
        # on the seed.
        n = 5 if smoke else 11
        ops = [
            ga_op(n, (1,), measures=("d2",), seed=opt_seed, r_max=2 if smoke else 11),
            ga_op(n, (1,), measures=("svet",), r_max=0, seed=opt_seed, restarts=16 if smoke else None),
            ga_op(4, (2,), measures=OPTIMIZER_MEASURES, r_max=1, seed=opt_seed, restarts=16),
        ]
    else:  # gga
        real_n, real_steps = (6, 5) if smoke else (12, 50)
        cplx_n = 5 if smoke else 10
        real_path = workdir / "start_real.json"
        cplx_path = workdir / "start_complex.json"
        real_doc = amplitude_document(rng, real_n, 3, complex_phases=False)
        cplx_doc = amplitude_document(rng, cplx_n, 2, complex_phases=True)
        real_path.write_text(json.dumps(real_doc))
        cplx_path.write_text(json.dumps(cplx_doc))
        phi_n, phi_points = (8, 10) if smoke else (16, 25)
        ops = [
            Op(
                label=f"gga --n {phi_n} --phi-points {phi_points}",
                kind="gga_phi",
                params={"n": phi_n, "phi_points": phi_points},
                argv=["gga", "--n", str(phi_n), "--phi-points", str(phi_points)],
            ),
        ]
        for path, doc, r_max in ((real_path, real_doc, real_steps), (cplx_path, cplx_doc, 20)):
            ops.append(
                Op(
                    label=f"gga --init-file {path.name} --r-max {r_max} --format json",
                    kind="gga_init",
                    params={"path": str(path), "r_max": r_max},
                    argv=["gga", "--init-file", str(path), "--r-max", str(r_max), "--format", "json"],
                )
            )
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]
