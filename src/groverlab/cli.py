"""Command-line front end: ga / gga / verify / figures."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .bruteforce import DEFAULT_GA_MEASURES, MEASURE_KEYS
from .errors import AmplitudeFileError, NumericalConsistencyError
from .gga import distribution_from_json
from .optimizers import OptimizerConfig
from .report import (
    MAX_ROWS,
    RunConfig,
    figure_outputs,
    ga_sweep,
    init_file_sweep,
    phi_sweep,
    verify_rows,
    write,
)


def _load_config_file(ctx: click.Context, param, path: str | None) -> None:
    """Read a line-oriented key=value file into the command's default_map.

    The keys are the command's long options without "--"; later duplicate
    keys win. Values then go through each option's own type and checks, and
    a flag given on the command line wins over its key. An unknown key or an
    unreadable file is a usage error.
    """
    if path is None:
        return
    names = {o[2:]: p.name for p in ctx.command.params for o in p.opts if o.startswith("--")}
    del names["config"]
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in names:
            raise click.UsageError(
                f"{path}:{lineno}: unknown {ctx.command.name} config key {key!r}"
                f" (known: {', '.join(sorted(names))})"
            )
        values[names[key]] = value.strip()
    ctx.default_map = values


def _ints(fields, form: str) -> tuple:
    try:
        return tuple(int(f) for f in fields)
    except ValueError:
        raise ValueError(f"expected {form}") from None


def _parse_j_spec(spec: str) -> tuple:
    spec, form = spec.strip(), "J, J1,J2,... or LO..HI"
    if ".." in spec:
        lo, hi = _ints(spec.split("..", 1), form)
        if hi - lo >= MAX_ROWS:  # each j series has at least one row
            raise ValueError(f"{hi - lo + 1:,} values, more than the {MAX_ROWS:,} rows a sweep may have")
        return tuple(range(lo, hi + 1))
    return _ints((p for p in spec.split(",") if p), form)


def _parse_finite(spec: str) -> float:
    value = float(spec)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_grid(spec: str) -> tuple:
    """(theta_grid, phi_grid), the first two fields of OptimizerConfig."""
    return _ints(spec.lower().partition("x")[::2], "THETAxPHI, two integers such as 64x128")


def _parse_measures(spec: str) -> tuple:
    measures = tuple(spec.split(","))
    bad = [m for m in measures if m not in MEASURE_KEYS]
    if bad:
        raise ValueError(f"unknown {', '.join(bad)}; known: {', '.join(MEASURE_KEYS)}")
    return measures


class _Parsed(click.ParamType):
    """A string option read by `parse`; its ValueError fails the option (exit 2)."""

    def __init__(self, name: str, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(f"{value!r}: {exc}", param, ctx)


J_SPEC = _Parsed("j", _parse_j_spec)
GRID = _Parsed("grid", _parse_grid)
FINITE = _Parsed("float", _parse_finite)
MEASURE_LIST = _Parsed("measures", _parse_measures)


def _apply(*decorators):
    def wrap(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn

    return wrap


_run_options = _apply(
    click.option("--seed", type=click.IntRange(min=0), default=0, help="Seed of ga's svet search; every command records it."),
    click.option(
        "--config",
        metavar="FILE",
        is_eager=True,
        expose_value=False,
        callback=_load_config_file,
        help="key=value config file; its keys are the long options, and flags win.",
    ),
)

def _output_options(fmt: str):
    return _apply(
        click.option(
            "--format", "fmt", type=click.Choice(["csv", "json"]), default=fmt, help="Output format."
        ),
        click.option("--out", help="Output path (stdout when omitted)."),
        _run_options,
    )


def _write_file(path: Path, emit):
    """Open path for text with LF endings and call emit(file.write); an OSError is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            emit(fh.write)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


def _emit(result, run: RunConfig, out: str | None):
    """Stream the rendered result to stdout, or to the --out file, one block at a time."""
    if out is None:
        write(result, run, lambda text: click.echo(text, nl=False))
    else:
        _write_file(Path(out), lambda file_write: write(result, run, file_write))


class _Commands(click.Group):
    """The command group: a ValueError or NumericalConsistencyError from a command is a usage error (exit 2).

    A sweep computes its rows as they are written, so one may fail after the
    output began: stdout or the --out file then holds the blocks before it.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, NumericalConsistencyError) as exc:
            raise click.UsageError(str(exc))


@click.group(cls=_Commands, context_settings={"show_default": True})
@click.version_option(__version__)
def main():
    """Grover-search sweeps, generalized-Grover runs and self-validation."""


@main.command()
@click.option("--n", type=int, default=11, help="Qubit count (database size 2^n).")
@click.option("--j", "j_values", type=J_SPEC, default="1", help="Solution count: '3', '1,2,5' or '1..10'.")
@click.option("--r-max", type=int, help="Last iteration; r_opt when omitted.")
@click.option(
    "--measures",
    type=MEASURE_LIST,
    default=",".join(DEFAULT_GA_MEASURES),
    help=f"Comma list from {', '.join(MEASURE_KEYS)}.",
)
@click.option(
    "--grid",
    type=GRID,
    default=f"{OptimizerConfig.theta_grid}x{OptimizerConfig.phi_grid}",
    help="Discord grid THETAxPHI.",
)
@click.option("--restarts", type=int, default=OptimizerConfig.restarts, help="Svetlichny restarts.")
@click.option("--no-oracle", is_flag=True, help="Disable the brute-force fallback engine.")
@_output_options("csv")
def ga(n, j_values, r_max, measures, grid, restarts, no_oracle, seed, fmt, out):
    """Sweep the standard search: one row per iteration r = 0..r_max."""
    run = RunConfig(
        command="ga",
        n=n,
        j_values=j_values,
        r_max=r_max,
        measures=measures,
        optimizer=OptimizerConfig(*grid, restarts=restarts),
        seed=seed,
        fmt=fmt,
        use_oracle=not no_oracle,
    )
    _emit(ga_sweep(run), run, out)


@main.command()
@click.option("--n", type=int, default=10, help="Qubit count for the phi-family sweep.")
@click.option("--phi-points", type=int, default=50, help="Points in the phi0 sweep.")
@click.option("--init-file", help="JSON initial-amplitude document.")
@click.option("--r-max", type=int, help="Steps to log for --init-file runs.")
@_output_options("csv")
@click.pass_context
def gga(ctx, n, phi_points, init_file, r_max, seed, fmt, out):
    """Generalized search: phi-family sweep, or evolution of a custom start."""
    if init_file is not None:
        try:
            text = Path(init_file).read_text()
        except OSError as exc:
            raise click.UsageError(f"cannot read {init_file}: {exc}")
        try:
            dist = distribution_from_json(text)
        except AmplitudeFileError as exc:
            raise click.UsageError(f"{init_file}: {exc}")
        run = RunConfig(command="gga", n=dist.n, r_max=r_max, seed=seed, fmt=fmt, init_file=init_file)
        result = init_file_sweep(run, dist)
    else:
        run = RunConfig(command="gga", n=n, phi_points=phi_points, seed=seed, fmt=fmt)
        result = phi_sweep(run)
    # a flag or config key that this mode does not read is an error (after the run's own checks)
    unused, mode = ("r_max",), "--init-file runs"
    if init_file is not None:
        unused, mode = ("n", "phi_points"), "the phi-family sweep"
    for name in unused:
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            raise click.UsageError(f"--{name.replace('_', '-')} applies only to {mode}")
    _emit(result, run, out)


@main.command()
@click.option("--max-n", type=int, default=8, help="Largest qubit count to validate.")
@click.option("--j", "j_values", type=J_SPEC, default="1,2", help="Solution counts to validate.")
@click.option("--inject-fault", type=FINITE, default=0.0, help="Perturb the analytic amplitude (self-test).")
@_output_options("json")
def verify(max_n, j_values, inject_fault, seed, fmt, out):
    """Run the closed-form-vs-brute-force identity suite; exit 1 on failure."""
    run = RunConfig(
        command="verify",
        j_values=j_values,
        max_n=max_n,
        inject_fault=inject_fault,
        seed=seed,
        fmt=fmt,
    )
    summary, result = verify_rows(run)
    _emit(result, run, out)
    if not summary.passed:
        sys.exit(1)


@main.command()
@click.option(
    "--out", "out_dir", type=click.Path(path_type=Path), default="figures", help="Output directory."
)
@click.option("--phi-points", type=int, default=50, help="Points for the fig3 sweep.")
@_run_options
def figures(out_dir, phi_points, seed):
    """Emit plot-ready CSV data plus a gnuplot script for each measure figure."""
    run = RunConfig(command="figures", seed=seed, phi_points=phi_points)
    for name, emit in figure_outputs(run).items():
        _write_file(out_dir / name, emit)
        click.echo(f"wrote {out_dir / name}")


if __name__ == "__main__":
    main()
