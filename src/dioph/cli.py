"""Command-line front door: one command table, one parser, one emit path.

Subcommands: curve verify | curve height | curve log | dirichlet | exponent |
flow | haw | minkowski | weakdirichlet | probe.  ``_COMMANDS`` maps each
name to its argument list and to a function of the parsed arguments that
returns (report, CSV header or None, CSV rows).  One loop builds the parser
from the table, with the "curve ..." names under the ``curve`` group.  One
dispatch path checks the precision, replaces the input paths by the curve or
matrices they hold (``--liouville`` wins over ``--matrix``), runs the command
and writes its report.

Every run writes a JSON summary (schema "dioph-report/1"); record-style
commands also write a CSV with 17-significant-digit decimals.  Outputs carry
no timestamps, so a rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 1 validation error, 2 budget error, 3 certificate or
assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import mpmath as mp

from . import analytic, dioph_matrix, ec_core, experiments, haw_game, heights, lattice_dyn
from .errors import DEFAULT_PRECISION, CertificateError, DiophError, ValidationError

SCHEMA = "dioph-report/1"
# mpmath runs on Python ints (no gmpy2): on a 2-core VM, at 2^16 bits the slowest
# command measured (weakdirichlet --qmax 500) took 10 s, at 2^18 bits over 120 s
MAX_PRECISION_BITS = 65536

# CSV columns that hold exact integers: --full-precision adds no hex column for them
_EXACT_COLUMNS = ("q", "p", "is_minimum")


def _dec(x) -> str:
    """17-significant-digit decimal, locale-independent; float inf and nan as 'inf', 'nan'."""
    if isinstance(x, mp.mpf):
        return mp.nstr(x, 17)
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _load_json_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ValidationError(f"file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON in {path}: {e}") from e
    except (OSError, UnicodeDecodeError) as e:  # a directory, unreadable, or not UTF-8
        raise ValidationError(f"cannot read {path}: {e}") from e


def _jsonable(x):
    if isinstance(x, mp.mpf):
        return mp.nstr(x, 30)
    if isinstance(x, float):
        return x if math.isfinite(x) else _dec(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def emit_report(report: dict, args: argparse.Namespace,
                csv_header: Optional[List[str]] = None,
                csv_rows: Optional[List[List]] = None) -> List[str]:
    """Write the JSON summary (always) and the CSV (when format is csv); return the paths."""
    summary = {
        "schema": SCHEMA,
        "command": args.command_name,
        "precision_bits": args.precision_bits,
        "seed": args.seed,
    }
    summary.update(_jsonable(report))
    if not args.out:
        print(json.dumps(summary, sort_keys=True, indent=2))
        return []
    json_path = args.out + ".json"
    with open(json_path, "w", encoding="utf-8", newline="") as f:
        f.write(json.dumps(summary, sort_keys=True, indent=2))
        f.write("\n")
    if args.format != "csv" or csv_header is None:
        return [json_path]
    csv_path = args.out + ".csv"
    header = list(csv_header)
    if args.full_precision:
        header += [h + "_hex" for h in csv_header if h not in _EXACT_COLUMNS]
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in csv_rows or []:
            cells = [_dec(v) for v in row]
            if args.full_precision:
                cells += [float(v).hex() for h, v in zip(csv_header, row)
                          if h not in _EXACT_COLUMNS]
            f.write(",".join(cells) + "\n")
    return [json_path, csv_path]


def _affine(text: str, usage: str) -> ec_core.CurvePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(usage)
    return ec_core.CurvePoint.affine(parts[0], parts[1])


def _parse_point(curve, text: Optional[str]):
    if text is None:
        if curve.generator_hint is None:
            raise ValidationError("no point given and the curve has no generator")
        return curve.generator_hint
    return _affine(text, "point must be 'x,y' with exact rationals")


def _parse_target(text: Optional[str], precision_bits: int):
    if text is None or text == "random":
        return None
    if text.startswith("t:"):
        with mp.workprec(precision_bits):
            try:
                return mp.mpf(text[2:])
            except ValueError:
                raise ValidationError(f"target 't:VALUE' needs a number, got {text!r}") from None
    return _affine(text, "target must be 'x,y', 't:VALUE', or 'random'")


def _joined(values) -> str:
    return " ".join(map(str, values))


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, with args.curve, args.matrix,
# args.H and args.J already loaded, and returns (report, CSV header, CSV rows)


def _curve_verify(args):
    curve = args.curve
    pt = curve.generator_hint if args.point is None else _parse_point(curve, args.point)
    report = {
        "label": curve.label,
        "a": str(curve.a), "b": str(curve.b),
        "discriminant": str(curve.discriminant),
        "real_components": ec_core.real_components(curve),
    }
    if pt is not None:
        ok = ec_core.on_curve(curve, pt)
        report["point"] = str(pt)
        report["on_curve"] = ok
        if not ok:
            raise ValidationError(f"point {pt} is not on the curve")
        report["on_identity_component"] = ec_core.on_identity_component(curve, pt)
    return report, None, []


def _curve_height(args):
    curve, prec = args.curve, args.precision_bits
    pt = _parse_point(curve, args.point)
    naive = heights.naive_height(curve, pt, prec)
    local = heights.canonical_height_local(curve, pt, prec)
    limit = heights.canonical_height_limit(curve, pt, n_max=args.nmax, precision_bits=prec)
    with mp.workprec(prec):
        difference = abs(local.value - limit.value)
    report = {
        "label": curve.label, "point": str(pt),
        "naive_log_height": naive.value,
        "hhat_local": local.value,
        "hhat_limit": limit.value,
        "limit_tail_estimate": limit.tail_estimate,
        "methods_difference": difference,
        "height_convention": "x-height/2, natural log",
    }
    return report, None, []


def _curve_log(args):
    curve, prec = args.curve, args.precision_bits
    pt = _parse_point(curve, args.point)
    period = analytic.real_period(curve, prec)
    lg = analytic.elliptic_log(curve, pt, prec)
    with mp.workprec(prec):
        alpha = lg.t / period.omega
    report = {
        "label": curve.label, "point": str(pt),
        "omega": period.omega, "theta": lg.t, "alpha": alpha,
        "period_route": period.route,
    }
    return report, None, []


def _dirichlet(args):
    A = args.matrix
    ok, rec, threshold = dioph_matrix.dirichlet_check(A, args.Q)
    report = {
        "m": A.m, "n": A.n, "Q": args.Q, "ok": ok,
        "q": list(rec.q), "p": list(rec.p),
        "error": rec.error, "threshold": threshold,
    }
    rows = [[args.Q, _joined(rec.q), _joined(rec.p), float(rec.error), rec.exponent_sample]]
    return report, ["Q", "q", "p", "error", "exponent_sample"], rows


def _exponent(args):
    A = args.matrix
    fit = dioph_matrix.exponent_estimate(A, args.qmax, window_base=args.base)
    report = {
        "m": A.m, "n": A.n, "Q_max": args.qmax, "window_base": args.base,
        "estimate": fit.estimate, "observed_max": fit.observed_max,
        "method": fit.method, "exact_hit": list(fit.exact_hit) if fit.exact_hit else None,
        "windows": [{"Q_window": w, "best_sample": s} for w, s in fit.window_maxima],
    }
    rows = [[c["Q_window"], _joined(c["q"]), _joined(c["p"]), c["error"], c["exponent_sample"]]
            for c in fit.champions]
    return report, ["Q_window", "q", "p", "error", "exponent_sample"], rows


def _flow(args):
    prof = lattice_dyn.flow_profile(args.matrix, args.tmax, args.dt, sigma=args.sigma)
    report = {
        "m": prof.m, "n": prof.n, "t_max": args.tmax, "dt": args.dt,
        "sigma": args.sigma, "r_slope": prof.r_slope,
        "minima_times": prof.minima_times,
        "weighted_minima_times": prof.weighted_minima_times,
        "segment_slopes": lattice_dyn.segment_slopes(prof),
    }
    d = prof.lambdas.shape[1]
    header = ["t", "delta"] + [f"lambda_{i+1}" for i in range(d)] + ["is_minimum"]
    rows = [[t, delta] + lams + [int(flag)] for t, delta, lams, flag in zip(
        prof.times.tolist(), prof.delta_values.tolist(), prof.lambdas.tolist(),
        prof.is_minimum.tolist())]
    return report, header, rows


def _haw(args):
    outcome = haw_game.run_game(args.matrix, sigma=args.sigma, rounds=args.rounds,
                                bob_policy=args.bob, seed=args.seed,
                                beta=args.beta, c=args.c, rho0=args.rho0,
                                target=args.target)
    report = {
        "sigma": args.sigma, "mu": outcome.params.mu,
        "theta_sigma": outcome.params.theta_sigma, "theta_mu": outcome.params.theta_mu,
        "beta": args.beta, "c": args.c, "rounds": args.rounds, "bob": args.bob,
        "outcome_gamma": outcome.gamma,
        "stages": [{"t": st.t, "Q": st.Q, "band": [st.band_lo, st.band_hi],
                    "halfwidth": st.halfwidth, "spacing": st.spacing}
                   for st in outcome.params.stages],
        "transcript": outcome.transcript,
        "certificates": outcome.triggered,
        "all_certificates_pass": outcome.all_certificates_pass,
    }
    return report, None, []


def _minkowski(args):
    sols = experiments.minkowski_solutions(args.alpha, args.gamma, args.qmax,
                                           args.precision_bits)
    report = {"alpha": args.alpha, "gamma": args.gamma, "q_max": args.qmax,
              "count": len(sols),
              "solutions": [{"q": q, "p": p, "product": prod} for q, p, prod in sols[:64]]}
    return report, ["q", "p", "product"], [[q, p, prod] for q, p, prod in sols]


def _weakdirichlet(args):
    config = experiments.CurveExperimentConfig(
        curve=args.curve, target_P=_parse_target(args.target, args.precision_bits),
        q_max=args.qmax, precision_bits=args.precision_bits, windows_base=args.base,
        seed=args.seed)
    rep = experiments.weak_dirichlet_experiment(config)
    report = {
        "label": rep.curve_label, "omega": rep.omega, "theta": rep.theta,
        "alpha": rep.alpha, "gamma": rep.gamma, "hhatQ": rep.hhat_Q,
        "substituted_generator": rep.substituted_generator,
        "height_convention": rep.height_convention,
        "period_route": rep.period_route,
        "q_max": rep.q_max,
        "running_C_final": rep.running_C_final,
        "running_C_at_100": rep.running_C_at_100,
        "sigma_estimate": rep.sigma_fit.estimate,
        "sigma_observed_max": rep.sigma_fit.observed_max,
        "minkowski_count": rep.minkowski_count,
        "chain_check_ok": rep.chain_check_ok,
    }
    rows = [[rec.q[0], float(rec.error), rec.height_proxy,
             float(rec.error) * math.sqrt(rec.height_proxy), rec.exponent_sample]
            for rec in rep.records]
    return report, ["q", "d", "h_hat", "product", "exponent_sample"], rows


def _probe(args):
    schedule = args.schedule if args.schedule else \
        sorted({max(2, args.qmax // (2**k)) for k in range(5)} | {args.qmax})
    rep = experiments.conjecture_probe(args.H, args.J, xi_samples=args.xi_samples,
                                       Q_schedule=schedule, seed=args.seed,
                                       precision_bits=args.precision_bits)
    rows = [[i, ptd["Q"], ptd["error"], ptd["exponent"]]
            for i, tgt in enumerate(rep["targets"]) for ptd in tgt["points"]]
    return rep, ["xi_index", "Q", "error", "exponent_sample"], rows


# ---------------------------------------------------------------------------
# argument types that check their value: a bad one is a "dioph: error:" line
# naming the flag (exit 1), not a traceback deep in a command


def _checked(kind, ok, rule: str):
    """An argparse type: kind(text), rejected with `rule` unless ok(value)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


_NATURAL = _checked(int, lambda v: v >= 0, "must be a non-negative integer")
_COUNT = _checked(int, lambda v: v >= 1, "must be a positive integer")
_FINITE = _checked(float, math.isfinite, "must be a finite number")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "must be a finite number > 0")
_BASE = _checked(float, lambda v: 1 < v < math.inf, "must be a finite number > 1")
_BETA = _checked(float, lambda v: 0 < v < 1 / 3, "must lie in (0, 1/3)")


def _schedule(text: str) -> List[int]:
    """An argparse type: comma-separated integers."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# the command table: name -> (arguments, command); the order is the help order

_CURVE = [("--curve", {"required": True}), ("--point", {"default": None})]
_MATRIX = [("--matrix", {"required": True})]

_COMMANDS = {
    "curve verify": (_CURVE, _curve_verify),
    "curve height": (_CURVE + [("--nmax", {"type": int, "default": 11})], _curve_height),
    "curve log": (_CURVE, _curve_log),
    "dirichlet": (_MATRIX + [("--Q", {"type": int, "required": True})], _dirichlet),
    "exponent": ([
        ("--matrix", {"default": None}),
        ("--liouville", {"action": "store_true",
                         "help": "use the built-in Liouville-type constant"}),
        ("--qmax", {"type": int, "required": True}),
        ("--base", {"type": _BASE, "default": 2.0}),
    ], _exponent),
    "flow": (_MATRIX + [
        ("--tmax", {"type": _POSITIVE, "required": True}),
        ("--dt", {"type": _POSITIVE, "required": True}),
        ("--sigma", {"type": _FINITE, "default": None}),
    ], _flow),
    "haw": ([
        ("--matrix", {"default": None}),
        ("--liouville", {"action": "store_true"}),
        ("--sigma", {"type": _FINITE, "required": True}),
        ("--rounds", {"type": _NATURAL, "required": True}),
        ("--bob", {"choices": ["random", "greedy"], "default": "random"}),
        ("--beta", {"type": _BETA, "default": haw_game.DEFAULT_BETA}),
        ("--c", {"type": _POSITIVE, "default": haw_game.DEFAULT_C}),
        ("--rho0", {"type": _POSITIVE, "default": 0.05}),
        ("--target", {"type": _FINITE, "default": None}),
    ], _haw),
    "minkowski": ([
        ("--alpha", {"required": True}),
        ("--gamma", {"required": True}),
        ("--qmax", {"type": int, "required": True}),
    ], _minkowski),
    "weakdirichlet": ([
        ("--curve", {"required": True}),
        ("--target", {"default": "random"}),
        ("--qmax", {"type": int, "required": True}),
        ("--base", {"type": _BASE, "default": 2.0}),
    ], _weakdirichlet),
    "probe": ([
        ("--H", {"required": True}),
        ("--J", {"required": True}),
        ("--xi-samples", {"type": _COUNT, "default": 3}),
        ("--qmax", {"type": int, "default": 200}),
        ("--schedule", {"type": _schedule, "default": None,
                        "help": "comma-separated Q schedule; default derives from qmax"}),
    ], _probe),
}


class _Parser(argparse.ArgumentParser):
    """Raises ValidationError on bad input."""

    def error(self, message):
        raise ValidationError(message)


class _Commands(argparse._SubParsersAction):
    """Subcommands whose parsers are built only when argparse dispatches to them.

    `add_command` lists a name with its command name and arguments, so
    usage, help and choice errors see every command; `__call__` builds the
    parser of the one command named, on its first dispatch.
    """

    def add_command(self, leaf: str, name: str, arguments) -> None:
        self._name_parser_map[leaf] = (name, arguments)

    def __call__(self, parser, namespace, values, option_string=None):
        entry = self._name_parser_map.get(values[0])
        if isinstance(entry, tuple):
            name, arguments = entry
            sub = self._parser_class(prog=f"{self._prog_prefix} {values[0]}")
            for flag, kwargs in arguments:
                sub.add_argument(flag, **kwargs)
            sub.set_defaults(command_name=name)
            self._name_parser_map[values[0]] = sub
        super().__call__(parser, namespace, values, option_string)


@functools.lru_cache(maxsize=None)
def _build_parser(env_prec: Optional[str]) -> _Parser:
    """The parser, with env_prec (DIOPH_PRECISION_BITS) as the --precision-bits default.

    Built once per value: the environment variable is its only input.  Every
    command name is registered, so usage and help list them all; only the
    root and the ``curve`` group are built here, and each command's parser
    on its first dispatch (`_Commands`).
    """
    parser = _Parser(prog="dioph", description=__doc__)
    common = [
        ("--precision-bits", {"type": int, "default": env_prec or DEFAULT_PRECISION}),
        ("--seed", {"type": _NATURAL, "default": 0}),
        ("--out", {"type": str, "default": None,
                   "help": "output base path; writes OUT.json and OUT.csv"}),
        ("--format", {"choices": ["csv", "json"], "default": "csv"}),
        ("--full-precision", {"action": "store_true"}),
    ]
    sub = parser.add_subparsers(dest="command", action=_Commands)
    curve = sub.add_parser("curve", help="curve utilities").add_subparsers(
        dest="curve_command", action=_Commands)
    for name, (arguments, _) in _COMMANDS.items():
        *group, leaf = name.split()
        (curve if group else sub).add_command(leaf, name, common + arguments)
    return parser


def _load_inputs(args: argparse.Namespace) -> None:
    """Replace the input paths in args by the curve and matrices they hold."""
    prec = args.precision_bits
    if getattr(args, "liouville", False):
        alpha = dioph_matrix.liouville_number(precision_bits=prec)
        args.matrix = dioph_matrix.RealMatrix.scalar(alpha, prec)
    elif hasattr(args, "liouville") and not args.matrix:
        raise ValidationError(f"{args.command_name} needs --matrix or --liouville")
    for name in ("matrix", "H", "J"):
        path = getattr(args, name, None)
        if isinstance(path, str):
            setattr(args, name, dioph_matrix.RealMatrix.from_json(_load_json_file(path), prec))
    if hasattr(args, "curve"):
        args.curve = ec_core.curve_from_json(_load_json_file(args.curve))


def parse_and_dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser(os.environ.get("DIOPH_PRECISION_BITS"))
    try:
        args = parser.parse_args(list(argv))
        if not hasattr(args, "command_name"):
            parser.print_usage(sys.stderr)
            return 1
        if args.precision_bits < 64:
            raise ValidationError("precision_bits must be >= 64")
        if args.precision_bits > MAX_PRECISION_BITS:
            raise ValidationError(f"precision_bits must be <= {MAX_PRECISION_BITS} (--precision-bits)")
        _load_inputs(args)
        report, csv_header, csv_rows = _COMMANDS[args.command_name][1](args)
        emit_report(report, args, csv_header, csv_rows)
        # a game whose certificate failed still writes its report first
        if report.get("all_certificates_pass") is False:
            raise CertificateError("a triggered-stage certificate failed")
        return 0
    except DiophError as e:
        print(f"dioph: error: {e}", file=sys.stderr)
        return e.exit_code
    except SystemExit as e:  # argparse --help and friends
        return e.code if isinstance(e.code, int) else 0


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
