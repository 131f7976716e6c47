"""Command-line interface: synthesize | verify | stats | zeta | schrodinger | classical.

Exit codes: 0 success/pass, 1 verification fail, 2 input error, 3 capacity
error.  Reports are JSON with a schema_version field and embed the fully
resolved configuration; --no-timestamp makes them byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import classical, levelstats, schrodinger, spectra, zeta
from .errors import CapacityError, InputError
from .fockspace import TruncationBasis, matrix_from_json, matrix_to_json, synthesize
from .intertwiner import certify

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY_ERROR = 3


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


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Precedence: command-line flags > config file > defaults.

    Unknown config-file keys are rejected rather than silently ignored.
    """
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
        resolved.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _report_envelope(subcommand: str, config: dict, payload: dict, no_timestamp: bool) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": config,
        **payload,
    }
    if not no_timestamp:
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


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
    if config.get("spectrum"):
        return spectra.load_spectrum_text(config["spectrum"])
    if config.get("set"):
        count = config.get("count")
        if not count:
            raise InputError("--count is required with --set")
        return spectra.dense_subset(_parse_set_spec(config["set"]), int(count))
    raise InputError("provide --spectrum FILE or --set SPEC")


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_synthesize(args) -> int:
    defaults = {
        "spectrum": None,
        "set": None,
        "count": None,
        "modes": 1,
        "dim": None,
        "out": None,
        "report": None,
    }
    config = _resolve_config(args, defaults)
    seq = _load_sequence(config)
    d = int(config["dim"]) if config["dim"] else int(seq.size)
    basis = TruncationBasis.build(int(config["modes"]), d)
    A = synthesize(seq, basis)
    spectrum_of_A = np.sort(np.diag(A).real)
    check = spectra.completely_isospectral(spectrum_of_A, np.sort(seq[:d]), tol=0.0)
    if config["out"]:
        with open(config["out"], "w") as fh:
            fh.write(matrix_to_json(A) + "\n")
    payload = {
        "dim": d,
        "modes": int(config["modes"]),
        "exact_isospectrality": check.to_dict(),
    }
    _emit_report(
        _report_envelope("synthesize", config, payload, args.no_timestamp),
        config["report"],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    defaults = {"matrix": None, "modes": 1, "tol": None, "report": None}
    config = _resolve_config(args, defaults)
    if not config["matrix"]:
        raise InputError("--matrix is required")
    try:
        with open(config["matrix"]) as fh:
            H = matrix_from_json(fh.read())
    except FileNotFoundError:
        raise InputError(f"matrix file not found: {config['matrix']}")
    tol = float(config["tol"]) if config["tol"] is not None else None
    cert = certify(H, None, int(config["modes"]), tol=tol)
    payload = {"certificate": cert.to_dict()}
    _emit_report(
        _report_envelope("verify", config, payload, args.no_timestamp),
        config["report"],
    )
    return EXIT_OK if cert.passed else EXIT_VERIFY_FAIL


def _cmd_stats(args) -> int:
    defaults = {
        "spectrum": None,
        "set": None,
        "count": None,
        "model": "poisson",
        "degree": levelstats.DEFAULT_UNFOLD_DEGREE,
        "report": None,
        "histogram": None,
    }
    config = _resolve_config(args, defaults)
    seq = _load_sequence(config)
    sample = levelstats.unfold(seq, degree=int(config["degree"]))
    test = levelstats.spacing_test(sample, config["model"])
    if config["histogram"]:
        with open(config["histogram"], "w") as fh:
            fh.write(test.histogram_csv())
    payload = {"spacing_test": test.to_dict()}
    _emit_report(
        _report_envelope("stats", config, payload, args.no_timestamp),
        config["report"],
    )
    return EXIT_OK if test.passed else EXIT_VERIFY_FAIL


def _cmd_zeta(args) -> int:
    defaults = {
        "zeros": None,
        "compute": None,
        "degree": levelstats.DEFAULT_UNFOLD_DEGREE,
        "modes": 1,
        "synthesize_out": None,
        "report": None,
    }
    config = _resolve_config(args, defaults)
    if config["zeros"]:
        zero_set = zeta.parse_zeros(config["zeros"])
    elif config["compute"]:
        zero_set = zeta.compute_zeros(int(config["compute"]))
    else:
        raise InputError("provide --zeros FILE or --compute COUNT")
    sample = levelstats.unfold(zero_set.values, degree=int(config["degree"]))
    # short zero tables are a tendency check, so relax the sample-size floor
    tests = {
        model: levelstats.spacing_test(sample, model, min_count=10)
        for model in levelstats.MODELS
    }
    if config["synthesize_out"]:
        basis = TruncationBasis.build(int(config["modes"]), zero_set.count)
        A = synthesize(zero_set.values, basis)
        with open(config["synthesize_out"], "w") as fh:
            fh.write(matrix_to_json(A) + "\n")
    payload = {
        "zero_count": zero_set.count,
        "source": zero_set.source,
        "first_zero": float(zero_set.values[0]),
        "spacing_tests": {m: t.to_dict() for m, t in tests.items()},
        "gue_fits_better": bool(
            tests["gue"].ks_distance < tests["poisson"].ks_distance
        ),
    }
    _emit_report(
        _report_envelope("zeta", config, payload, args.no_timestamp),
        config["report"],
    )
    return EXIT_OK


def _cmd_schrodinger(args) -> int:
    defaults = {
        "dimension": 1,
        "potential": "harmonic",
        "half_width": 10.0,
        "points": 100,
        "levels": 10,
        "out": None,
        "pipeline": False,
        "modes": 1,
        "cap": None,
        "report": None,
    }
    config = _resolve_config(args, defaults)
    grid = schrodinger.GridSpec(
        int(config["dimension"]), float(config["half_width"]), int(config["points"])
    )
    pot_name = config["potential"]
    if pot_name == "harmonic":
        pot = schrodinger.PotentialSpec.harmonic()
    elif pot_name == "x2y2":
        pot = schrodinger.PotentialSpec.quartic_cross()
    elif isinstance(pot_name, str) and pot_name.startswith("csv:"):
        pot = schrodinger.load_potential_csv(pot_name[4:], grid)
    else:
        raise InputError(
            f"unknown potential {pot_name!r}; use harmonic, x2y2 or csv:PATH"
        )
    cap = int(config["cap"]) if config["cap"] is not None else schrodinger.dimension_cap()
    if grid.size > cap:
        raise CapacityError(
            f"matrix dimension {grid.size} exceeds cap {cap}; use a coarser grid"
        )
    m = int(config["levels"])
    levels = schrodinger.low_spectrum(schrodinger.assemble_sparse(grid, pot), m)
    if config["out"]:
        spectra.save_spectrum_text(levels, config["out"])
    payload = {
        "grid": {"dimension": grid.dimension, "half_width": grid.L, "points": grid.M},
        "levels": [float(f"{v:.17g}") for v in levels],
    }
    passed = True
    if config["pipeline"]:
        cert = schrodinger.certify_levels(levels, int(config["modes"]))
        payload["certificate"] = cert.to_dict()
        passed = cert.passed
    _emit_report(
        _report_envelope("schrodinger", config, payload, args.no_timestamp),
        config["report"],
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _parse_phase_vector(text, n: int, name: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in str(text).split(",")])
    except ValueError:
        raise InputError(f"bad {name} vector {text!r}")
    if values.size != n:
        raise InputError(f"{name} must have {n} components")
    return values


def _cmd_classical(args) -> int:
    defaults = {
        "spectrum": None,
        "set": None,
        "count": None,
        "modes": 1,
        "nodes": 8,
        "x0": None,
        "p0": None,
        "time": 100.0,
        "dt": None,
        "trajectory": None,
        "report": None,
    }
    config = _resolve_config(args, defaults)
    seq = _load_sequence(config)
    n = int(config["modes"])
    table = classical.ActionTable.build(seq, n, int(config["nodes"]))
    x0 = (
        _parse_phase_vector(config["x0"], n, "x0")
        if config["x0"] is not None
        else np.ones(n)
    )
    p0 = (
        _parse_phase_vector(config["p0"], n, "p0")
        if config["p0"] is not None
        else np.zeros(n)
    )
    dt = float(config["dt"]) if config["dt"] is not None else None
    flow = classical.integrate_flow(table, x0, p0, float(config["time"]), dt=dt)
    if config["trajectory"]:
        with open(config["trajectory"], "w") as fh:
            fh.write(flow.trajectory_csv())
    payload = {
        "initial_energy": classical.classical_value(table, x0, p0),
        "max_action_drift": flow.max_action_drift,
        "max_energy_drift": flow.max_energy_drift,
        "steps": int(flow.times.size - 1),
        "truncated": flow.truncated,
    }
    _emit_report(
        _report_envelope("classical", config, payload, args.no_timestamp),
        config["report"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp for byte-reproducible reports",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-forge",
        description="Realize prescribed spectra as integrable operators and "
        "analyze level statistics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synthesize", help="build a diagonal operator realizing a spectrum")
    p.add_argument("--spectrum", help="spectrum file, one float per line")
    p.add_argument("--set", help="closed-set spec: finite:V1,V2 | interval:LO:HI | cantor")
    p.add_argument("--count", type=int, help="dense-subset length for --set")
    p.add_argument("--modes", type=int, help="number of modes n (default 1)")
    p.add_argument("--dim", type=int, help="truncation dimension (default: full spectrum)")
    p.add_argument("--out", help="write the operator matrix JSON here")
    _add_common(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify", help="run the full intertwiner pipeline on a matrix")
    p.add_argument("--matrix", help="Hermitian matrix JSON {dim, re, im}")
    p.add_argument("--modes", type=int, help="number of first integrals (default 1)")
    p.add_argument("--tol", type=float, help="isospectrality tolerance")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="unfold a spectrum and test its spacing law")
    p.add_argument("--spectrum", help="spectrum file, one float per line")
    p.add_argument("--set", help="closed-set spec (alternative input)")
    p.add_argument("--count", type=int, help="dense-subset length for --set")
    p.add_argument("--model", choices=list(levelstats.MODELS))
    p.add_argument("--degree", type=int, help="unfolding polynomial degree")
    p.add_argument("--histogram", help="write spacing histogram CSV here")
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("zeta", help="critical-line zeros: Poisson vs GUE comparison")
    p.add_argument("--zeros", help="file of ascending zeros, one per line")
    p.add_argument("--compute", type=int, help="compute the first COUNT zeros (<= 100)")
    p.add_argument("--degree", type=int, help="unfolding polynomial degree")
    p.add_argument("--modes", type=int, help="modes for --synthesize-out")
    p.add_argument(
        "--synthesize-out",
        dest="synthesize_out",
        help="also write the integrable operator realizing the zeros",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("schrodinger", help="finite-difference -Laplacian + V spectra")
    p.add_argument("--dimension", type=int, choices=(1, 2))
    p.add_argument("--potential", help="harmonic | x2y2 | csv:PATH")
    p.add_argument("--half-width", dest="half_width", type=float, help="box half-width L")
    p.add_argument("--points", type=int, help="interior grid points per axis")
    p.add_argument("--levels", type=int, help="how many low eigenvalues to keep")
    p.add_argument("--out", help="write the spectrum text file here")
    p.add_argument("--pipeline", action="store_true", default=None,
                   help="also run the integrability pipeline on the projection")
    p.add_argument("--modes", type=int, help="modes for the pipeline certificate")
    p.add_argument("--cap", type=int, help="matrix dimension cap override")
    _add_common(p)
    p.set_defaults(func=_cmd_schrodinger)

    p = sub.add_parser("classical", help="action-variable flow with drift report")
    p.add_argument("--spectrum", help="spectrum file, one float per line")
    p.add_argument("--set", help="closed-set spec (alternative input)")
    p.add_argument("--count", type=int, help="dense-subset length for --set")
    p.add_argument("--modes", type=int, help="number of modes n")
    p.add_argument("--nodes", type=int, help="action nodes per mode K")
    p.add_argument("--x0", help="comma-separated initial positions")
    p.add_argument("--p0", help="comma-separated initial momenta")
    p.add_argument("--time", type=float, help="integration time T")
    p.add_argument("--dt", type=float, help="time step (default from table frequency)")
    p.add_argument("--trajectory", help="write trajectory CSV here")
    _add_common(p)
    p.set_defaults(func=_cmd_classical)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY_ERROR
    except (InputError, OSError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
