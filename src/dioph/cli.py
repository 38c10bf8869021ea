"""Command-line front door: ingestion, dispatch, and report emission.

Subcommands: curve verify | curve height | curve log | dirichlet | exponent |
flow | haw | minkowski | weakdirichlet | probe.  Every run writes a JSON
summary (schema "dioph-report/1"); record-style commands also write a CSV
with 17-significant-digit decimals.  Outputs carry no timestamps, so a rerun
with the same config and seed is byte-identical.

Exit codes: 0 success, 1 validation error, 2 budget error, 3 certificate or
assertion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import mpmath as mp

from . import analytic, ec_core, experiments, haw_game, heights, lattice_dyn
from .dioph_matrix import RealMatrix, dirichlet_check, exponent_estimate, liouville_number
from .errors import DiophError, ValidationError

SCHEMA = "dioph-report/1"


@dataclass
class RunConfig:
    command: str
    precision_bits: int = 256
    seed: int = 0
    out: Optional[str] = None
    format: str = "csv"
    full_precision: bool = False
    params: dict = field(default_factory=dict)


def _dec(x) -> str:
    """17-significant-digit decimal, locale-independent."""
    if isinstance(x, mp.mpf):
        return mp.nstr(x, 17)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    return str(x)


def _hexcol(x) -> str:
    return float(x).hex()


def _load_json_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ValidationError(f"file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON in {path}: {e}") from e


def _load_matrix(path: str, precision_bits: int) -> RealMatrix:
    return RealMatrix.from_json(_load_json_file(path), precision_bits)


def _load_curve(path: str) -> ec_core.RationalCurve:
    return ec_core.curve_from_json(_load_json_file(path))


def _jsonable(x):
    if isinstance(x, mp.mpf):
        return mp.nstr(x, 30)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def emit_report(report: dict, config: RunConfig,
                csv_header: Optional[List[str]] = None,
                csv_rows: Optional[List[List]] = None) -> List[str]:
    """Write the JSON summary (always) and the CSV (when format is csv)."""
    written: List[str] = []
    summary = {
        "schema": SCHEMA,
        "command": config.command,
        "precision_bits": config.precision_bits,
        "seed": config.seed,
    }
    summary.update(_jsonable(report))
    if config.out:
        json_path = config.out + ".json"
        with open(json_path, "w", encoding="utf-8", newline="") as f:
            f.write(json.dumps(summary, sort_keys=True, indent=2))
            f.write("\n")
        written.append(json_path)
        if config.format == "csv" and csv_header is not None:
            csv_path = config.out + ".csv"
            header = list(csv_header)
            if config.full_precision:
                header = header + [h + "_hex" for h in header if h not in ("q", "p", "is_minimum")]
            with open(csv_path, "w", encoding="utf-8", newline="") as f:
                f.write(",".join(header) + "\n")
                for row in csv_rows or []:
                    cells = [_dec(v) if not isinstance(v, (str, int)) else str(v) for v in row]
                    if config.full_precision:
                        cells += [_hexcol(v) for h, v in zip(csv_header, row)
                                  if h not in ("q", "p", "is_minimum")]
                    f.write(",".join(cells) + "\n")
            written.append(csv_path)
    else:
        print(json.dumps(summary, sort_keys=True, indent=2))
    return written


def _parse_point(curve, text: Optional[str]):
    if text is None:
        if curve.generator_hint is None:
            raise ValidationError("no point given and the curve has no generator")
        return curve.generator_hint
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("point must be 'x,y' with exact rationals")
    return ec_core.CurvePoint.affine(parts[0], parts[1])


# ---------------------------------------------------------------------------
# command handlers


def _cmd_curve_verify(args, cfg: RunConfig) -> int:
    curve = _load_curve(args.curve)
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
    emit_report(report, cfg)
    return 0


def _cmd_curve_height(args, cfg: RunConfig) -> int:
    curve = _load_curve(args.curve)
    pt = _parse_point(curve, args.point)
    naive = heights.naive_height(curve, pt, cfg.precision_bits)
    local = heights.canonical_height_local(curve, pt, cfg.precision_bits)
    limit = heights.canonical_height_limit(curve, pt, n_max=args.nmax,
                                           precision_bits=cfg.precision_bits)
    report = {
        "label": curve.label, "point": str(pt),
        "naive_log_height": naive.value,
        "hhat_local": local.value,
        "hhat_limit": limit.value,
        "limit_tail_estimate": limit.tail_estimate,
        "methods_difference": abs(local.value - limit.value),
        "height_convention": "x-height/2, natural log",
    }
    emit_report(report, cfg)
    return 0


def _cmd_curve_log(args, cfg: RunConfig) -> int:
    curve = _load_curve(args.curve)
    pt = _parse_point(curve, args.point)
    period = analytic.real_period(curve, cfg.precision_bits)
    lg = analytic.elliptic_log(curve, pt, cfg.precision_bits)
    with mp.workprec(cfg.precision_bits):
        alpha = lg.t / period.omega
    report = {
        "label": curve.label, "point": str(pt),
        "omega": period.omega, "theta": lg.t, "alpha": alpha,
        "period_route": period.route,
    }
    emit_report(report, cfg)
    return 0


def _cmd_dirichlet(args, cfg: RunConfig) -> int:
    A = _load_matrix(args.matrix, cfg.precision_bits)
    ok, rec = dirichlet_check(A, args.Q)
    with mp.workprec(cfg.precision_bits):
        threshold = mp.mpf(args.Q) ** (-mp.mpf(A.n) / A.m)
    report = {
        "m": A.m, "n": A.n, "Q": args.Q, "ok": ok,
        "q": list(rec.q), "p": list(rec.p),
        "error": rec.error, "threshold": threshold,
    }
    header = ["Q", "q", "p", "error", "exponent_sample"]
    rows = [[args.Q, " ".join(map(str, rec.q)), " ".join(map(str, rec.p)),
             float(rec.error), rec.exponent_sample]]
    emit_report(report, cfg, header, rows)
    return 0


def _cmd_exponent(args, cfg: RunConfig) -> int:
    if args.liouville:
        alpha = liouville_number(precision_bits=cfg.precision_bits)
        A = RealMatrix.scalar(alpha, cfg.precision_bits)
    else:
        A = _load_matrix(args.matrix, cfg.precision_bits)
    fit = exponent_estimate(A, args.qmax, window_base=args.base)
    report = {
        "m": A.m, "n": A.n, "Q_max": args.qmax, "window_base": args.base,
        "estimate": fit.estimate, "observed_max": fit.observed_max,
        "method": fit.method, "exact_hit": list(fit.exact_hit) if fit.exact_hit else None,
        "windows": [{"Q_window": w, "best_sample": s} for w, s in fit.window_maxima],
    }
    header = ["Q_window", "q", "p", "error", "exponent_sample"]
    rows = [[c["Q_window"], " ".join(map(str, c["q"])), " ".join(map(str, c["p"])),
             c["error"], c["exponent_sample"]] for c in fit.champions]
    emit_report(report, cfg, header, rows)
    return 0


def _cmd_flow(args, cfg: RunConfig) -> int:
    A = _load_matrix(args.matrix, cfg.precision_bits)
    prof = lattice_dyn.flow_profile(A, args.tmax, args.dt, sigma=args.sigma)
    d = prof.lambdas.shape[1]
    report = {
        "m": prof.m, "n": prof.n, "t_max": args.tmax, "dt": args.dt,
        "sigma": args.sigma, "r_slope": prof.r_slope,
        "minima_times": prof.minima_times,
        "weighted_minima_times": prof.weighted_minima_times,
        "segment_slopes": lattice_dyn.segment_slopes(prof),
    }
    header = ["t", "delta"] + [f"lambda_{i+1}" for i in range(d)] + ["is_minimum"]
    rows = []
    for i, t in enumerate(prof.times):
        rows.append([float(t), float(prof.delta_values[i])]
                    + [float(v) for v in prof.lambdas[i]]
                    + [int(prof.is_minimum[i])])
    emit_report(report, cfg, header, rows)
    return 0


def _cmd_haw(args, cfg: RunConfig) -> int:
    if args.liouville:
        alpha = liouville_number(precision_bits=cfg.precision_bits)
        A = RealMatrix.scalar(alpha, cfg.precision_bits)
    else:
        A = _load_matrix(args.matrix, cfg.precision_bits)
    outcome = haw_game.run_game(A, sigma=args.sigma, rounds=args.rounds,
                                bob_policy=args.bob, seed=cfg.seed,
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
    emit_report(report, cfg)
    if not outcome.all_certificates_pass:
        raise haw_game.CertificateError("a triggered-stage certificate failed")
    return 0


def _cmd_minkowski(args, cfg: RunConfig) -> int:
    sols = experiments.minkowski_solutions(args.alpha, args.gamma, args.qmax,
                                           cfg.precision_bits)
    report = {"alpha": args.alpha, "gamma": args.gamma, "q_max": args.qmax,
              "count": len(sols),
              "solutions": [{"q": q, "p": p, "product": prod} for q, p, prod in sols[:64]]}
    header = ["q", "p", "product"]
    rows = [[q, p, prod] for q, p, prod in sols]
    emit_report(report, cfg, header, rows)
    return 0


def _parse_target(text: Optional[str]):
    if text is None or text == "random":
        return None
    if text.startswith("t:"):
        return mp.mpf(text[2:])
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("target must be 'x,y', 't:VALUE', or 'random'")
    return ec_core.CurvePoint.affine(parts[0], parts[1])


def _cmd_weakdirichlet(args, cfg: RunConfig) -> int:
    curve = _load_curve(args.curve)
    config = experiments.CurveExperimentConfig(
        curve=curve, target_P=_parse_target(args.target), q_max=args.qmax,
        precision_bits=cfg.precision_bits, windows_base=args.base, seed=cfg.seed)
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
    header = ["q", "d", "h_hat", "product", "exponent_sample"]
    rows = []
    for rec in rep.records:
        d = float(rec.error)
        rows.append([rec.q[0], d, rec.height_proxy,
                     d * math.sqrt(rec.height_proxy), rec.exponent_sample])
    emit_report(report, cfg, header, rows)
    return 0


def _cmd_probe(args, cfg: RunConfig) -> int:
    H = _load_matrix(args.H, cfg.precision_bits)
    J = _load_matrix(args.J, cfg.precision_bits)
    schedule = [int(v) for v in args.schedule.split(",")] if args.schedule else \
        sorted({max(2, args.qmax // (2**k)) for k in range(5)} | {args.qmax})
    rep = experiments.conjecture_probe(H, J, xi_samples=args.xi_samples,
                                       Q_schedule=schedule, seed=cfg.seed,
                                       precision_bits=cfg.precision_bits)
    header = ["xi_index", "Q", "error", "exponent_sample"]
    rows = []
    for i, tgt in enumerate(rep["targets"]):
        for ptd in tgt["points"]:
            rows.append([i, ptd["Q"], ptd["error"], ptd["exponent"]])
    emit_report(rep, cfg, header, rows)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dioph", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    env_prec = os.environ.get("DIOPH_PRECISION_BITS")
    common.add_argument("--precision-bits", type=int,
                        default=int(env_prec) if env_prec else 256)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default=None,
                        help="output base path; writes OUT.json and OUT.csv")
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--full-precision", action="store_true")
    sub = parser.add_subparsers(dest="command")

    curve = sub.add_parser("curve", parents=[], help="curve utilities")
    csub = curve.add_subparsers(dest="curve_command")
    p = csub.add_parser("verify", parents=[common])
    p.add_argument("--curve", required=True)
    p.add_argument("--point", default=None)
    p.set_defaults(handler=_cmd_curve_verify, command_name="curve verify")
    p = csub.add_parser("height", parents=[common])
    p.add_argument("--curve", required=True)
    p.add_argument("--point", default=None)
    p.add_argument("--nmax", type=int, default=11)
    p.set_defaults(handler=_cmd_curve_height, command_name="curve height")
    p = csub.add_parser("log", parents=[common])
    p.add_argument("--curve", required=True)
    p.add_argument("--point", default=None)
    p.set_defaults(handler=_cmd_curve_log, command_name="curve log")

    p = sub.add_parser("dirichlet", parents=[common])
    p.add_argument("--matrix", required=True)
    p.add_argument("--Q", type=int, required=True)
    p.set_defaults(handler=_cmd_dirichlet, command_name="dirichlet")

    p = sub.add_parser("exponent", parents=[common])
    p.add_argument("--matrix", default=None)
    p.add_argument("--liouville", action="store_true",
                   help="use the built-in Liouville-type constant")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--base", type=float, default=2.0)
    p.set_defaults(handler=_cmd_exponent, command_name="exponent")

    p = sub.add_parser("flow", parents=[common])
    p.add_argument("--matrix", required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.set_defaults(handler=_cmd_flow, command_name="flow")

    p = sub.add_parser("haw", parents=[common])
    p.add_argument("--matrix", default=None)
    p.add_argument("--liouville", action="store_true")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--bob", choices=["random", "greedy"], default="random")
    p.add_argument("--beta", type=float, default=haw_game.DEFAULT_BETA)
    p.add_argument("--c", type=float, default=haw_game.DEFAULT_C)
    p.add_argument("--rho0", type=float, default=0.05)
    p.add_argument("--target", type=float, default=None)
    p.set_defaults(handler=_cmd_haw, command_name="haw")

    p = sub.add_parser("minkowski", parents=[common])
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.set_defaults(handler=_cmd_minkowski, command_name="minkowski")

    p = sub.add_parser("weakdirichlet", parents=[common])
    p.add_argument("--curve", required=True)
    p.add_argument("--target", default="random")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--base", type=float, default=2.0)
    p.set_defaults(handler=_cmd_weakdirichlet, command_name="weakdirichlet")

    p = sub.add_parser("probe", parents=[common])
    p.add_argument("--H", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--xi-samples", type=int, default=3)
    p.add_argument("--qmax", type=int, default=200)
    p.add_argument("--schedule", default=None,
                   help="comma-separated Q schedule; default derives from qmax")
    p.set_defaults(handler=_cmd_probe, command_name="probe")
    return parser


def parse_and_dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "precision_bits", 256) < 64:
            raise ValidationError("precision_bits must be >= 64")
        if args.command_name == "exponent" and not args.liouville and not args.matrix:
            raise ValidationError("exponent needs --matrix or --liouville")
        if args.command_name == "haw" and not args.liouville and not args.matrix:
            raise ValidationError("haw needs --matrix or --liouville")
        cfg = RunConfig(command=args.command_name,
                        precision_bits=args.precision_bits, seed=args.seed,
                        out=args.out, format=args.format,
                        full_precision=args.full_precision)
        return args.handler(args, cfg)
    except DiophError as e:
        print(f"dioph: error: {e}", file=sys.stderr)
        return e.exit_code
    except SystemExit as e:  # argparse --help and friends
        code = e.code if isinstance(e.code, int) else 0
        return code


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
