"""Command-line interface: synthesize | verify | stats | zeta | schrodinger | classical.

Exit codes: 0 success/pass, 1 verification fail, 2 input error, 3 capacity
or numerical error (over the dimension cap, out of memory, or a solver that
did not converge).  Reports are JSON with a schema_version field and embed
the fully resolved configuration; --no-timestamp makes them byte-reproducible.

Each option is one row of ``SUBCOMMANDS``.  The row builds the ``--flag``,
supplies the default, and checks a config-file value with the flag's own
converter and choices, so the report's ``config`` holds the values that ran.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from . import classical, levelstats, schrodinger, spectra, zeta
from .errors import CapacityError, InputError
from .fockspace import (
    TruncationBasis,
    _synthesized_diagonal,
    matrix_from_json,
    matrix_to_json,
    sparse_diagonal,
)
from .intertwiner import certify

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY_ERROR = 3  # also a numerical failure: a solver that did not converge


# ---------------------------------------------------------------------------
# the option table: converters take a flag's text or a config-file JSON value

def integer(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError
    return int(value)


def number(value) -> float:
    if isinstance(value, bool):
        raise ValueError
    return float(value)


def text(value) -> str:
    if not isinstance(value, str):
        raise ValueError
    return value


def boolean(value) -> bool:
    """An on/off flag; a config file gives it as JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError
    return value


@dataclass(frozen=True)
class Option:
    """Config key ``name``, given on the command line as ``--name`` (``_`` as ``-``)."""

    name: str
    convert: Callable = text
    default: object = None
    help: str = ""
    choices: tuple = ()

    def from_config(self, value):
        """A config-file value, converted and checked as the flag's text would be."""
        if value is None and self.default is None:
            return value
        try:
            converted = self.convert(value)
            if not self.choices or converted in self.choices:
                return converted
        except (TypeError, ValueError, OverflowError):
            pass
        expected = self.convert.__name__
        if self.choices:
            expected = "one of " + ", ".join(map(str, self.choices))
        raise InputError(f"config key {self.name!r}: expected {expected}, got {json.dumps(value)}")


@dataclass(frozen=True)
class Subcommand:
    run: Callable[[dict], tuple[dict, bool]]  # typed config -> (payload, passed)
    help: str
    options: tuple[Option, ...]


SPECTRUM_INPUT = (
    Option("spectrum", help="spectrum file, one float per line"),
    Option("set", help="closed-set spec: finite:V1,V2 | interval:LO:HI | cantor"),
    Option("count", integer, help="dense-subset length for --set"),
)
MODES = Option("modes", integer, 1, "number of modes n")
DEGREE = Option(
    "degree", integer, levelstats.DEFAULT_UNFOLD_DEGREE, "unfolding polynomial degree"
)
REPORT = Option("report", help="write the JSON report here instead of stdout")


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path}: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"config file {path}: expected a JSON object")
    return data


def _resolve_config(args: argparse.Namespace, options: tuple[Option, ...]) -> dict:
    """Precedence: command-line flags > config file > defaults.

    Unknown config-file keys are rejected rather than silently ignored.
    """
    resolved = {opt.name: opt.default for opt in options}
    if args.config:
        rows = {opt.name: opt for opt in options}
        file_cfg = _load_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(rows))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
        resolved.update((key, rows[key].from_config(v)) for key, v in file_cfg.items())
    for opt in options:
        value = getattr(args, opt.name)
        if value is not None:
            resolved[opt.name] = value
    return resolved


def _emit_report(report: dict, path) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_set_spec(text: str) -> spectra.ClosedSetSpec:
    kind, _, rest = text.partition(":")
    if kind == "finite":
        try:
            points = [float(v) for v in rest.split(",") if v]
        except ValueError:
            raise InputError(f"bad finite set spec: {text!r}")
        return spectra.ClosedSetSpec.finite(points)
    if kind == "interval":
        parts = rest.split(":")
        if len(parts) != 2:
            raise InputError(f"bad interval spec: {text!r} (want interval:LO:HI)")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise InputError(f"bad interval spec: {text!r}")
        return spectra.ClosedSetSpec.interval(lo, hi)
    if kind == "cantor" and not rest:
        return spectra.ClosedSetSpec.cantor()
    raise InputError(
        f"unknown set spec {text!r}; use finite:V1,V2,..., interval:LO:HI or cantor"
    )


def _load_sequence(config: dict) -> np.ndarray:
    if config["spectrum"]:
        return spectra.load_spectrum_text(config["spectrum"])
    if config["set"]:
        if config["count"] is None:
            raise InputError("--count is required with --set")
        if config["count"] < 1:
            raise InputError(f"--count must be at least 1, got {config['count']}")
        return spectra.dense_subset(_parse_set_spec(config["set"]), config["count"])
    raise InputError("provide --spectrum FILE or --set SPEC")


# ---------------------------------------------------------------------------
# subcommand implementations: typed config -> (report payload, passed)

def _synthesized_operator(seq, modes: int, d: int, out):
    """The diagonal operator realizing ``seq[:d]`` on ``modes`` modes, as CSR;
    written to ``out`` as sparse matrix JSON when ``out`` is given."""
    A = sparse_diagonal(_synthesized_diagonal(seq, TruncationBasis.build(modes, d)))
    if out:
        with open(out, "w") as fh:
            fh.write(matrix_to_json(A) + "\n")
    return A


def _cmd_synthesize(config: dict) -> tuple[dict, bool]:
    seq = _load_sequence(config)
    d = seq.size if config["dim"] is None else config["dim"]
    if not 1 <= d <= seq.size:
        raise InputError(f"--dim must be in 1..{seq.size}, got {d}")
    A = _synthesized_operator(seq, config["modes"], d, config["out"])
    check = spectra.completely_isospectral(A.diagonal().real, seq[:d], tol=0.0)
    payload = {
        "dim": d,
        "modes": config["modes"],
        "exact_isospectrality": check.to_dict(),
    }
    return payload, True


def _cmd_verify(config: dict) -> tuple[dict, bool]:
    if not config["matrix"]:
        raise InputError("--matrix is required")
    try:
        with open(config["matrix"]) as fh:
            H = matrix_from_json(fh.read())
    except FileNotFoundError:
        raise InputError(f"matrix file not found: {config['matrix']}")
    cert = certify(H, None, config["modes"])
    return {"certificate": cert.to_dict()}, cert.passed


def _cmd_stats(config: dict) -> tuple[dict, bool]:
    sample = levelstats.unfold(_load_sequence(config), degree=config["degree"])
    test = levelstats.spacing_test(sample, config["model"])
    if config["histogram"]:
        with open(config["histogram"], "w") as fh:
            fh.write(test.histogram_csv())
    return {"spacing_test": test.to_dict()}, test.passed


def _cmd_zeta(config: dict) -> tuple[dict, bool]:
    if config["zeros"]:
        zero_set = zeta.parse_zeros(config["zeros"])
    elif config["compute"] is not None:
        if config["compute"] < 1:
            raise InputError(
                f"--compute must be in 1..{zeta.MAX_COMPUTED_ZEROS}, got {config['compute']}"
            )
        zero_set = zeta.compute_zeros(config["compute"])
    else:
        raise InputError("provide --zeros FILE or --compute COUNT")
    sample = levelstats.unfold(zero_set.values, degree=config["degree"])
    # short zero tables are a tendency check, so relax the sample-size floor
    tests = {
        model: levelstats.spacing_test(sample, model, min_count=10)
        for model in ("poisson", "gue")
    }
    if config["synthesize_out"]:
        _synthesized_operator(
            zero_set.values, config["modes"], zero_set.count, config["synthesize_out"]
        )
    payload = {
        "zero_count": zero_set.count,
        "source": zero_set.source,
        "first_zero": float(zero_set.values[0]),
        "spacing_tests": {m: t.to_dict() for m, t in tests.items()},
        "gue_fits_better": bool(
            tests["gue"].ks_distance < tests["poisson"].ks_distance
        ),
    }
    return payload, True


def _cmd_schrodinger(config: dict) -> tuple[dict, bool]:
    grid = schrodinger.GridSpec(config["dimension"], config["half_width"], config["points"])
    V = schrodinger.potential(config["potential"], grid)
    levels, sectors = schrodinger.grid_levels(grid, V, config["levels"], config["cap"])
    if config["out"]:
        spectra.save_spectrum_text(levels, config["out"])
    payload = {
        "grid": {"dimension": grid.dimension, "half_width": grid.L, "points": grid.M},
        "levels": levels.tolist(),
    }
    if sectors is not None:
        payload["sectors"] = sectors
    if not config["pipeline"]:
        return payload, True
    cert = schrodinger.certify_levels(levels, config["modes"])
    payload["certificate"] = cert.to_dict()
    return payload, cert.passed


def _parse_phase_vector(text: str, n: int, name: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InputError(f"bad {name} vector {text!r}")
    if values.size != n:
        raise InputError(f"{name} must have {n} components")
    return values


def _cmd_classical(config: dict) -> tuple[dict, bool]:
    seq = _load_sequence(config)
    n = config["modes"]
    table = classical.ActionTable.build(seq, n, config["nodes"])
    x0 = np.ones(n) if config["x0"] is None else _parse_phase_vector(config["x0"], n, "x0")
    p0 = np.zeros(n) if config["p0"] is None else _parse_phase_vector(config["p0"], n, "p0")
    flow = classical.integrate_flow(table, x0, p0, config["time"], dt=config["dt"])
    if config["trajectory"]:
        with open(config["trajectory"], "w") as fh:
            fh.write(flow.trajectory_csv())
    payload = {
        "initial_energy": float(flow.energies[0]),
        "max_action_drift": flow.max_action_drift,
        "max_energy_drift": flow.max_energy_drift,
        "steps": int(flow.times.size - 1),
        "truncated": flow.truncated,
    }
    return payload, True


SUBCOMMANDS = {
    "synthesize": Subcommand(_cmd_synthesize, "build a diagonal operator realizing a spectrum", (
        *SPECTRUM_INPUT,
        MODES,
        Option("dim", integer, help="truncation dimension (default: full spectrum)"),
        Option("out", help="write the operator as sparse matrix JSON here"),
        REPORT,
    )),
    "verify": Subcommand(_cmd_verify, "run the full intertwiner pipeline on a matrix", (
        Option("matrix", help="Hermitian matrix JSON, dense {dim, re, im} or sparse "
               "{dim, rows, cols, re, im}"),
        MODES,
        REPORT,
    )),
    "stats": Subcommand(_cmd_stats, "unfold a spectrum and test its spacing law", (
        *SPECTRUM_INPUT,
        Option("model", text, "poisson", "spacing law to test", levelstats.MODELS),
        DEGREE,
        Option("histogram", help="write spacing histogram CSV here"),
        REPORT,
    )),
    "zeta": Subcommand(_cmd_zeta, "critical-line zeros: Poisson vs GUE comparison", (
        Option("zeros", help="file of ascending zeros, one per line"),
        Option("compute", integer, help="compute the first COUNT zeros (<= 100)"),
        DEGREE,
        MODES,
        Option("synthesize_out", help="also write the integrable operator realizing the zeros"),
        REPORT,
    )),
    "schrodinger": Subcommand(_cmd_schrodinger, "finite-difference -Laplacian + V spectra", (
        Option("dimension", integer, 1, "grid dimension", (1, 2)),
        Option("potential", text, "harmonic", "harmonic | x2y2 | csv:PATH"),
        Option("half_width", number, 10.0, "box half-width L"),
        Option("points", integer, 100, "interior grid points per axis"),
        Option("levels", integer, 10, "how many low eigenvalues to keep"),
        Option("out", help="write the spectrum text file here"),
        Option("pipeline", boolean, False, "also certify the projection onto the levels"),
        MODES,
        Option("cap", integer, help="cap on the dimension of a matrix made dense"),
        REPORT,
    )),
    "classical": Subcommand(_cmd_classical, "action-variable flow with drift report", (
        *SPECTRUM_INPUT,
        MODES,
        Option("nodes", integer, 8, "action nodes per mode K"),
        Option("x0", help="comma-separated initial positions (default all 1)"),
        Option("p0", help="comma-separated initial momenta (default all 0)"),
        Option("time", number, 100.0, "integration time T"),
        Option("dt", number, help="time step (default from table frequency)"),
        Option("trajectory", help="write trajectory CSV here"),
        REPORT,
    )),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are input errors: exit 2 with one line, as for config values."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-forge",
        description="Realize prescribed spectra as integrable operators and "
        "analyze level statistics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            kind = (
                {"action": "store_true"} if opt.convert is boolean
                else {"type": opt.convert, "choices": opt.choices or None}
            )
            shown = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            # every flag defaults to None, so _resolve_config sees which were given
            p.add_argument("--" + opt.name.replace("_", "-"), default=None, help=shown, **kind)
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-reproducible reports")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = SUBCOMMANDS[args.subcommand]
        config = _resolve_config(args, command.options)
        payload, passed = command.run(config)
        report = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": args.subcommand,
            "config": config,
            **payload,
        }
        if not args.no_timestamp:
            report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        _emit_report(report, config["report"])
    except (CapacityError, MemoryError) as exc:
        # numpy names the allocation it could not make; a bare MemoryError says nothing
        print(f"error: capacity: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY_ERROR
    except (ArpackNoConvergence, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_CAPACITY_ERROR
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
