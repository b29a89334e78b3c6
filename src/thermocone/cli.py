"""Command-line interface over the canonical JSON/CSV formats.

Canonical state file: {"energies": [...], "beta": x, "state": [...]}.  Pair
inputs add "target"; catalyst searches may add "catalyst_gibbs".  JSON output
carries 12 significant digits, CSV 8; identical input, seed and samples give
byte-identical output.  Exit codes: 0 success, 1 domain error or any other
failure (one `error:` line on stderr, no traceback), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .catalysis import (
    c_plus_vertices,
    catalysable_future_member,
    catalysable_past_member,
    dim_bound,
    qubit_window,
    search_qubit_catalyst,
)
from .cones import future_cone_vertices
from .cooling import NoRootError, critical_hot_betas, optimal_cooling
from .core import Dist, EnergySpectrum, compare, tm_curve
from .embedding import oracle_report
from .entanglement import TwoQubitConfig, in_CN, in_TN, unitary_entanglable, volume_ratio_CN_TN
from .volume import DEFAULT_SAMPLES, DEFAULT_SEED, isovolume_grid, mc_volume

__all__ = ["run", "main"]

SUBCOMMANDS = (
    "curve",
    "compare",
    "cone",
    "catalysable",
    "dimbound",
    "qubit-window",
    "search-catalyst",
    "oracle-check",
    "volume",
    "isovolume",
    "entangle",
    "entangle-volumes",
    "cooling",
    "cooling-critical",
)


class UsageError(Exception):
    """Bad invocation or malformed input file (exit code 2)."""


def _sig12(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Dist):
        return [_sig12(float(v)) for v in obj.probs]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig12(float(obj))
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.8g}"
    return str(v)


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read input file {path!r}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: top-level JSON object expected")
    return doc


def _reject_constant(name: str):
    raise UsageError(f"non-finite number {name} is not allowed")


def _is_number(v) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _field(doc: dict, name: str, path: str):
    if name not in doc:
        raise UsageError(f"{path}: missing field {name!r}")
    return doc[name]


def _load_spectrum(doc: dict, path: str, beta_override: float | None) -> EnergySpectrum:
    energies = _field(doc, "energies", path)
    beta = beta_override if beta_override is not None else _field(doc, "beta", path)
    if not isinstance(energies, list) or not all(_is_number(e) for e in energies):
        raise UsageError(f"{path}: field 'energies' must be a list of numbers")
    if not _is_number(beta):
        raise UsageError(f"{path}: field 'beta' must be a number")
    return EnergySpectrum(tuple(float(e) for e in energies), float(beta))


def _load_state(doc: dict, path: str, field: str = "state") -> Dist:
    raw = _field(doc, field, path)
    if not isinstance(raw, list) or not all(_is_number(v) for v in raw):
        raise UsageError(f"{path}: field {field!r} must be a list of numbers")
    return Dist(np.asarray(raw, dtype=float))


def _inputs(doc: dict, args, *fields: str) -> tuple:
    """The input document's spectrum and its named state fields, in that order."""
    return (_load_spectrum(doc, args.input, args.beta), *(_load_state(doc, args.input, f) for f in fields))


def _order_key(pi: tuple[int, ...]) -> str:
    return ",".join(str(i + 1) for i in pi)  # 1-based level numbering on the wire


def _cmd_curve(doc, args) -> dict | str:
    spec, state = _inputs(doc, args, "state")
    curve = tm_curve(state, spec)
    return {"elbows": [[x, y] for x, y in zip(curve.xs, curve.ys)]}


def _cmd_compare(doc, args) -> dict:
    spec, state, target = _inputs(doc, args, "state", "target")
    return {"relation": compare(state, target, spec).value}


def _cmd_cone(doc, args) -> dict:
    spec, state = _inputs(doc, args, "state")
    vertices = future_cone_vertices(state, spec)
    return {"vertices": {_order_key(pi): v for pi, v in vertices}}


def _cmd_catalysable(doc, args) -> dict:
    spec, state = _inputs(doc, args, "state")
    out: dict = {"vertices": {_order_key(pi): v for pi, v in c_plus_vertices(state, spec)}}
    if "target" in doc:
        target = _load_state(doc, args.input, "target")
        out["catalysable_future_member"] = catalysable_future_member(target, state, spec)
        out["catalysable_past_member"] = catalysable_past_member(target, state, spec)
    return out


def _cmd_dimbound(doc, args) -> dict:
    spec, state, target = _inputs(doc, args, "state", "target")
    db = dim_bound(state, target, spec)
    return {
        "a": db.a,
        "b": db.b,
        "k_star": db.k_star,
        "L_interval": list(db.L_interval),
        "L_prime": list(db.L_prime),
    }


def _gibbs_r(doc: dict, args) -> float:
    if args.catalyst_gibbs is not None:
        return args.catalyst_gibbs
    value = doc.get("catalyst_gibbs", 0.5)
    if not _is_number(value):
        raise UsageError("field 'catalyst_gibbs' must be a number")
    return float(value)


def _cmd_qubit_window(doc, args) -> dict:
    spec, state, target = _inputs(doc, args, "state", "target")
    gibbs_r = _gibbs_r(doc, args)
    windows = qubit_window(state, target, spec, gibbs_r)
    return {
        "gibbs_r": gibbs_r,
        "windows": [{"lo": w.lo, "hi": w.hi, "empty": w.empty} for w in windows],
    }


def _cmd_search_catalyst(doc, args) -> dict:
    spec, state, target = _inputs(doc, args, "state", "target")
    gibbs_r = _gibbs_r(doc, args)
    hits = search_qubit_catalyst(state, target, spec, gibbs_r, args.grid)
    return {"gibbs_r": gibbs_r, "grid_n": args.grid, "t_values": hits}


def _cmd_oracle_check(doc, args) -> dict:
    spec, state, target = _inputs(doc, args, "state", "target")
    report = oracle_report(state, target, spec, args.max_denominator)
    return {
        "thermo": report.thermo,
        "embedded": report.embedded,
        "margin": report.margin,
        "threshold": report.threshold,
        "inconclusive": report.inconclusive,
        "denominator": report.rational.denominator,
        "numerators": list(report.rational.numerators),
    }


def _cmd_volume(doc, args) -> dict:
    spec, state = _inputs(doc, args, "state")
    est = mc_volume(state, spec, args.region, samples=args.samples, seed=args.seed)
    return {
        "region": args.region,
        "value": est.value,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
    }


def _cmd_isovolume(doc, args) -> str:
    (spec,) = _inputs(doc, args)
    table = isovolume_grid(spec, resolution=args.resolution, samples=args.samples, seed=args.seed)
    lines = ["x,y,relative_volume"]
    lines += [",".join(_csv_cell(v) for v in row) for row in table]
    return "\n".join(lines) + "\n"


def _cmd_entangle(doc, args) -> dict:
    spec, state = _inputs(doc, args, "state")
    expected = TwoQubitConfig(spec.beta)
    if tuple(spec.energies) != expected.energies:
        raise UsageError("entangle expects the two-qubit spectrum energies [0, 1, 1, 2]")
    return {
        "beta": spec.beta,
        "unitary_entanglable": unitary_entanglable(state),
        "in_TN": in_TN(state, expected),
        "in_CN": in_CN(state, expected, samples=args.samples, seed=args.seed),
    }


def _cmd_entangle_volumes(doc, args) -> str:
    betas = _parse_float_list(args.betas, "--betas")
    lines = ["beta,V_TN,V_CN,ratio"]
    for beta in betas:
        v_tn, v_cn, ratio = volume_ratio_CN_TN(beta, samples=args.samples, seed=args.seed)
        lines.append(",".join(_csv_cell(v) for v in (beta, v_tn.value, v_cn.value, ratio)))
    return "\n".join(lines) + "\n"


def _cmd_cooling(doc, args) -> dict:
    spec, state = _inputs(doc, args, "state")
    report = optimal_cooling(state, spec, catalytic=args.catalytic)
    out = {
        "q_c": report.q_c,
        "target": report.target,
        "order": _order_key(report.order),
    }
    if args.catalytic:
        # value is a bound: catalysable membership does not guarantee a catalyst
        out["q_c_catalytic_bound"] = report.q_c_catalytic
        out["target_catalytic"] = report.target_catalytic
        out["order_catalytic"] = _order_key(report.order_catalytic)
    return out


def _cmd_cooling_critical(doc, args) -> str:
    betas = _parse_float_list(args.beta_list, "--beta-list")
    lines = ["d,beta,beta_h_down,beta_h_up"]
    for beta in betas:
        try:
            down, up = critical_hot_betas(args.d, beta, linearised=args.linearised, j=args.j)
        except NoRootError:
            down, up = math.nan, math.nan
        lines.append(",".join(_csv_cell(v) for v in (args.d, beta, down, up)))
    return "\n".join(lines) + "\n"


def _finite_float(text: str) -> float:
    """A finite number from the command line; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        return [_finite_float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{flag} expects a comma-separated list of finite numbers: {exc}") from exc


def _write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path!r}: {exc}") from exc


# each handler takes the input document (None for `_NO_INPUT`) and the parsed flags
_HANDLERS = {name: globals()["_cmd_" + name.replace("-", "_")] for name in SUBCOMMANDS}

_NO_INPUT = {"entangle-volumes", "cooling-critical"}


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: argparse keeps no state between parse_args calls
    parser = argparse.ArgumentParser(
        prog="thermocone",
        description="thermomajorisation, thermal cones and catalysable regions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(name: str, needs_input: bool = True, sampled: bool = False) -> argparse.ArgumentParser:
        # a subcommand offers only the flags it reads; no abbreviations, so a flag it lacks is never
        # taken for a longer one (`--beta` for `--betas`)
        p = sub.add_parser(name, allow_abbrev=False)
        if needs_input:
            p.add_argument("--input", required=True, help="canonical JSON state/pair file")
            p.add_argument("--beta", type=_finite_float, default=None, help="override the file's beta")
        if sampled:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
            p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--out", default=None, help="write result here instead of stdout")
        return p

    for name in ("curve", "compare", "cone", "catalysable", "dimbound"):
        common(name)
    common("qubit-window").add_argument("--catalyst-gibbs", type=_finite_float, default=None)
    p = common("search-catalyst")
    p.add_argument("--catalyst-gibbs", type=_finite_float, default=None)
    p.add_argument("--grid", type=int, default=200)
    common("oracle-check").add_argument("--max-denominator", type=int, default=1000)
    common("volume", sampled=True).add_argument("--region", default="C+", help="one of T+, T-, T0, C+, C-")
    common("isovolume", sampled=True).add_argument("--resolution", type=int, default=10)
    common("entangle", sampled=True)
    p = common("entangle-volumes", needs_input=False, sampled=True)
    p.add_argument("--betas", required=True, help="comma-separated inverse temperatures")
    common("cooling").add_argument("--catalytic", action="store_true")
    p = common("cooling-critical", needs_input=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta-list", required=True, help="comma-separated inverse temperatures")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--linearised", action="store_true")
    return parser


def run(argv) -> int:
    """Execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.subcommand not in _NO_INPUT and not Path(args.input).is_file():
            raise UsageError(f"input file {args.input!r} does not exist")
        doc = None if args.subcommand in _NO_INPUT else _load_json(args.input)
        result = _HANDLERS[args.subcommand](doc, args)
        text = result if isinstance(result, str) else json.dumps(_jsonable(result), indent=2) + "\n"
        if args.out is not None:
            _write_out(args.out, text)
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure is a domain error, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
