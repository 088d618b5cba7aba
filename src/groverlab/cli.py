"""Command-line front end: ga / gga / verify / figures."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .bruteforce import DEFAULT_GA_MEASURES, MEASURE_KEYS
from .errors import AmplitudeFileError
from .gga import distribution_from_json
from .optimizers import OptimizerConfig
from .report import (
    RunConfig,
    figure_outputs,
    ga_sweep,
    init_file_sweep,
    phi_sweep,
    render,
    verify_rows,
)


def _load_config_file(path: str | None) -> dict:
    """Line-oriented key=value file; later duplicate keys win.

    The keys are the running command's long options without "--"; an unknown
    key or an unreadable file is a usage error.
    """
    if path is None:
        return {}
    command = click.get_current_context().command
    known = {o[2:] for p in command.params for o in p.opts if o.startswith("--")} - {"config"}
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise click.UsageError(
                f"{path}:{lineno}: unknown {command.name} config key {key!r}"
                f" (known: {', '.join(sorted(known))})"
            )
        values[key] = value.strip()
    return values


def _merged(flag_value, file_values: dict, key: str, cast, default):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        try:
            return cast(file_values[key])
        except (TypeError, ValueError) as exc:
            raise click.UsageError(f"config key {key}={file_values[key]!r}: {exc}")
    return default


def _parse_j_spec(spec: str) -> tuple:
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in spec.split(",") if p)


def _parse_grid(spec: str) -> tuple:
    theta, _, phi = spec.lower().partition("x")
    return int(theta), int(phi)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _emit(content: str, out: str | None):
    if out is None:
        click.echo(content, nl=False)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="\n") as fh:
            fh.write(content)


def _common_options(fn):
    fn = click.option("--seed", type=int, default=None, help="Optimizer / RNG seed.")(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="Output format."
    )(fn)
    fn = click.option("--out", default=None, help="Output path (stdout when omitted).")(fn)
    fn = click.option("--config", "config_path", default=None, help="key=value config file.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Grover-search sweeps, generalized-Grover runs and self-validation."""


@main.command()
@click.option("--n", type=int, default=None, help="Qubit count (database size 2^n).")
@click.option("--j", "j_spec", default=None, help="Solution count: '3', '1,2,5' or '1..10'.")
@click.option("--r-max", type=int, default=None, help="Last iteration (default: r_opt).")
@click.option(
    "--measures",
    default=None,
    help=f"Comma list from {', '.join(MEASURE_KEYS)} (default {','.join(DEFAULT_GA_MEASURES)}).",
)
@click.option("--grid", default=None, help="Discord grid THETAxPHI (default 64x128).")
@click.option("--restarts", type=int, default=None, help="Svetlichny restarts (default 64).")
@click.option("--no-oracle", is_flag=True, default=False, help="Disable the brute-force fallback engine.")
@_common_options
def ga(n, j_spec, r_max, measures, grid, restarts, no_oracle, seed, fmt, out, config_path):
    """Sweep the standard search: one row per iteration r = 0..r_max."""
    cfgf = _load_config_file(config_path)
    try:
        n = _merged(n, cfgf, "n", int, 11)
        j_values = _merged(
            _parse_j_spec(j_spec) if j_spec else None, cfgf, "j", _parse_j_spec, (1,)
        )
        r_max = _merged(r_max, cfgf, "r-max", int, None)
        measure_list = _merged(
            tuple(measures.split(",")) if measures else None,
            cfgf,
            "measures",
            lambda s: tuple(s.split(",")),
            DEFAULT_GA_MEASURES,
        )
        theta_grid, phi_grid = _merged(
            _parse_grid(grid) if grid else None, cfgf, "grid", _parse_grid, (64, 128)
        )
        restarts = _merged(restarts, cfgf, "restarts", int, 64)
        seed = _merged(seed, cfgf, "seed", int, 0)
        fmt = _merged(fmt, cfgf, "format", str, "csv")
        out = _merged(out, cfgf, "out", str, None)
        if no_oracle is False and "no-oracle" in cfgf:
            no_oracle = _parse_bool(cfgf["no-oracle"])
        bad = [m for m in measure_list if m not in MEASURE_KEYS]
        if bad:
            raise click.UsageError(f"unknown measures: {', '.join(bad)}")
        run = RunConfig(
            command="ga",
            n=n,
            j_values=j_values,
            r_max=r_max,
            measures=measure_list,
            optimizer=OptimizerConfig(
                theta_grid=theta_grid, phi_grid=phi_grid, restarts=restarts, seed=seed
            ),
            seed=seed,
            fmt=fmt,
            use_oracle=not no_oracle,
        )
        result = ga_sweep(run)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(render(result, run), out)


@main.command()
@click.option("--n", type=int, default=None, help="Qubit count for the phi-family sweep.")
@click.option("--phi-points", type=int, default=None, help="Points in the phi0 sweep (default 50).")
@click.option("--init-file", default=None, help="JSON initial-amplitude document.")
@click.option("--r-max", type=int, default=None, help="Steps to log for --init-file runs.")
@_common_options
def gga(n, phi_points, init_file, r_max, seed, fmt, out, config_path):
    """Generalized search: phi-family sweep, or evolution of a custom start."""
    cfgf = _load_config_file(config_path)
    n = _merged(n, cfgf, "n", int, 10)
    phi_points = _merged(phi_points, cfgf, "phi-points", int, 50)
    init_file = _merged(init_file, cfgf, "init-file", str, None)
    r_max = _merged(r_max, cfgf, "r-max", int, None)
    seed = _merged(seed, cfgf, "seed", int, 0)
    fmt = _merged(fmt, cfgf, "format", str, "csv")
    out = _merged(out, cfgf, "out", str, None)
    try:
        if init_file is not None:
            try:
                text = Path(init_file).read_text()
            except OSError as exc:
                raise click.UsageError(f"cannot read {init_file}: {exc}")
            try:
                dist = distribution_from_json(text)
            except AmplitudeFileError as exc:
                raise click.UsageError(f"{init_file}: {exc}")
            run = RunConfig(
                command="gga", n=dist.n, r_max=r_max, seed=seed, fmt=fmt, init_file=init_file
            )
            result = init_file_sweep(run, dist)
        else:
            run = RunConfig(command="gga", n=n, phi_points=phi_points, seed=seed, fmt=fmt)
            result = phi_sweep(run)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(render(result, run), out)


@main.command()
@click.option("--max-n", type=int, default=None, help="Largest qubit count to validate (default 8).")
@click.option("--j", "j_spec", default=None, help="Solution counts to validate (default 1,2).")
@click.option("--inject-fault", type=float, default=None, help="Perturb the analytic amplitude (self-test).")
@_common_options
def verify(max_n, j_spec, inject_fault, seed, fmt, out, config_path):
    """Run the closed-form-vs-brute-force identity suite; exit 1 on failure."""
    cfgf = _load_config_file(config_path)
    max_n = _merged(max_n, cfgf, "max-n", int, 8)
    j_values = _merged(
        _parse_j_spec(j_spec) if j_spec else None, cfgf, "j", _parse_j_spec, (1, 2)
    )
    fault = _merged(inject_fault, cfgf, "inject-fault", float, 0.0)
    seed = _merged(seed, cfgf, "seed", int, 0)
    fmt = _merged(fmt, cfgf, "format", str, "json")
    out = _merged(out, cfgf, "out", str, None)
    try:
        run = RunConfig(
            command="verify",
            j_values=j_values,
            max_n=max_n,
            inject_fault=fault,
            seed=seed,
            fmt=fmt,
        )
        summary, result = verify_rows(run)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(render(result, run), out)
    if not summary.passed:
        sys.exit(1)


@main.command()
@click.option("--out", "out_dir", default="figures", help="Output directory.")
@click.option("--grid", default=None, help="Discord grid THETAxPHI (default 64x128).")
@click.option("--restarts", type=int, default=None, help="Svetlichny restarts (default 64).")
@click.option("--phi-points", type=int, default=None, help="Points for the fig3 sweep (default 50).")
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", default=None, help="key=value config file.")
def figures(out_dir, grid, restarts, phi_points, seed, config_path):
    """Emit plot-ready CSV data plus a gnuplot script for each measure figure."""
    cfgf = _load_config_file(config_path)
    theta_grid, phi_grid = _merged(
        _parse_grid(grid) if grid else None, cfgf, "grid", _parse_grid, (64, 128)
    )
    restarts = _merged(restarts, cfgf, "restarts", int, 64)
    phi_points = _merged(phi_points, cfgf, "phi-points", int, 50)
    seed = _merged(seed, cfgf, "seed", int, 0)
    out_dir = Path(_merged(None, cfgf, "out", str, out_dir))
    try:
        run = RunConfig(
            command="figures",
            seed=seed,
            phi_points=phi_points,
            optimizer=OptimizerConfig(
                theta_grid=theta_grid, phi_grid=phi_grid, restarts=restarts, seed=seed
            ),
        )
        files = figure_outputs(run)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        with open(out_dir / name, "w", newline="\n") as fh:
            fh.write(content)
        click.echo(f"wrote {out_dir / name}")


if __name__ == "__main__":
    main()
