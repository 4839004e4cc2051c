"""Command-line interface.

Subcommands:
  multiplier   tabulate family multipliers over degrees
  verify       run identity suites and emit a machine-readable run report
  apply        apply a transform to a function file
  body         make / intersect / classify / pair-check star bodies

Exit codes: 0 success, 1 identity failure, 2 argument error, 3 excluded
parameter or quadrature window, 4 representation mismatch or malformed
input file, 5 non-positive or non-symmetric body.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time

import numpy as np

from . import multipliers as mult
from . import sphere, starbody
from . import zonal as zn
from .errors import (
    BadShapeParamsError,
    CoslabError,
    ExcludedParameterError,
    GammaPoleError,
    NonPositiveBodyError,
    OddInputError,
    QuadratureWindowError,
    RepresentationError,
    UnknownConstantError,
)
from .io import load_object, save_object
from .reports import RunReport
from .sphere import GridFunction, GrassmannFunctionS2, HarmonicCoeffs
from .zonal import ZonalFunction

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARAM = 3
EXIT_REPR = 4
EXIT_BODY = 5

_PARAM_ERRORS = (ExcludedParameterError, QuadratureWindowError, GammaPoleError,
                 UnknownConstantError)
_BODY_ERRORS = (NonPositiveBodyError, OddInputError, BadShapeParamsError)
# error kinds -> exit code; any other argument, file or coslab error exits EXIT_USAGE
_EXIT_CODES = ((_PARAM_ERRORS, EXIT_PARAM), (RepresentationError, EXIT_REPR),
               (_BODY_ERRORS, EXIT_BODY))
# --family choice -> multiplier family of multipliers.table
_FAMILIES = {family.lower(): family for family in mult.FAMILY_PARAMS}


def _param_names(families) -> tuple:
    """The parameters that the given multiplier families read, each once, sorted;
    each is a float flag of the subcommand that applies those families."""
    return tuple(sorted({name for family in families
                         for name in mult.FAMILY_PARAMS.get(family, ())}))


# every family parameter, each a flag of `multiplier`
_PARAM_NAMES = _param_names(mult.FAMILY_PARAMS)


# the settings a verify config file may hold
_CONFIG_KEYS = ("n", "jmax", "lmax", "tol", "seed", "n_theta", "mult_tol")


def _read_config(path: str | None) -> dict:
    """Flat key=value configuration file; '#' starts a comment.  A key outside
    _CONFIG_KEYS raises ValueError."""
    cfg: dict[str, str] = {}
    if not path:
        return cfg
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}; known: {', '.join(_CONFIG_KEYS)}")
            cfg[key] = value
    return cfg


def _write_report(report: RunReport, out: str | None) -> None:
    """The run report as JSON: to ``out`` if given, else to stdout."""
    text = report.to_json()
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_bound(flag: str, value: float, positive: bool = True) -> float:
    """Return value if it is finite and > 0 (>= 0 unless ``positive``), else exit 2."""
    if np.isfinite(value) and (value > 0 or value == 0 and not positive):
        return value
    raise argparse.ArgumentTypeError(
        f"{flag} must be finite and {'>' if positive else '>='} 0, got {value}")


def _setting(args, cfg: dict, name: str, default, cast):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in cfg:
        return cast(cfg[name])
    return default


# --- multiplier ----------------------------------------------------------------


def _family_params(args, what: str, reads, defaults: dict) -> dict:
    """The parameter flags, and apply's --method and --i, that ``what`` reads, by
    name; exit 2 if a flag it does not read is given, or if one it reads is
    missing and has no default."""
    unread = [f"--{name}" for name in (*_PARAM_NAMES, "method", "i")
              if name not in reads and getattr(args, name, None) is not None]
    if unread:
        raise argparse.ArgumentTypeError(f"{what} does not read {' or '.join(unread)}")
    params = {name: getattr(args, name) for name in reads}
    missing = [f"--{name}" for name, value in params.items()
               if value is None and name not in defaults]
    if missing:
        raise argparse.ArgumentTypeError(f"{what} needs {' and '.join(missing)}")
    return {name: defaults[name] if value is None else value
            for name, value in params.items()}


def _cmd_multiplier(args) -> int:
    family = _FAMILIES[args.family]
    # an absent --alpha is order 0
    params = _family_params(args, f"family {args.family!r}", mult.FAMILY_PARAMS[family],
                            {"alpha": 0.0})
    if args.jmax < 0:
        raise argparse.ArgumentTypeError(f"--jmax must be at least 0, got {args.jmax}")
    degrees = np.arange(args.jmax + 1)
    values = mult.table(args.n, degrees, family, **params)
    rows = list(zip(degrees.tolist(), values.tolist()))
    if args.format == "json":
        print(json.dumps([{"j": j, "value": v} for j, v in rows], indent=1))
    else:
        print("j,value")
        for j, v in rows:
            print(f"{j},{v!r}")
    return 0


# --- verify ---------------------------------------------------------------------


def _alpha_grid(count: int, lo: float, hi: float) -> list[float]:
    """Evenly spaced orders placed off every half-integer lattice."""
    step = (hi - lo) / count
    return [lo + (k + 0.5) * step for k in range(count)]


def _cmd_verify(args) -> int:
    cfg = _read_config(args.config)
    n_list = [int(x) for x in (args.n or cfg.get("n", "3")).split(",")]
    jmax = int(_setting(args, cfg, "jmax", 200, int))
    lmax = int(_setting(args, cfg, "lmax", 12, int))
    tol = _check_bound("--tol", _setting(args, cfg, "tol", 1e-6, float))
    seed = int(_setting(args, cfg, "seed", 7, int))
    n_theta = int(_setting(args, cfg, "n_theta", max(4 * lmax, 48), int))
    if min(n_list) < 2:
        raise argparse.ArgumentTypeError(f"dimensions must be at least 2, got {n_list}")
    if jmax < 0:
        raise argparse.ArgumentTypeError(f"--jmax must be at least 0, got {jmax}")
    if args.suite in ("s2", "all") and lmax < 2:
        raise argparse.ArgumentTypeError(f"the S^2 suite needs lmax >= 2, got {lmax}")
    if args.suite == "zonal" and lmax < 1:
        raise argparse.ArgumentTypeError(f"the zonal suite needs lmax >= 1, got {lmax}")

    jobs = []
    if args.suite in ("multipliers", "all"):
        grid_alphas = _alpha_grid(40, -6.0, 6.0)
        # --tol governs the multiplier suite when it is the one requested;
        # under "all" the multiplier identities keep their own 1e-10 default
        mtol = (tol if args.suite == "multipliers" and args.tol is not None
                else _check_bound("mult_tol", _setting(args, cfg, "mult_tol", 1e-10, float)))
        for n in n_list:
            jobs.append(lambda n=n: mult.check_identities(n, jmax, grid_alphas, mtol))
    if args.suite in ("zonal", "all"):
        jobs.append(lambda: zn.verify_zonal_suite(tuple(n_list), J=min(lmax, 16),
                                                  seed=seed, tol=max(tol * 1e-2, 1e-8)))
    if args.suite in ("s2", "all"):
        jobs.append(lambda: sphere.verify_s2_suite(L=lmax, tol=tol, seed=seed,
                                                   n_theta=n_theta))
    if args.suite in ("starbody", "all"):
        jobs.append(lambda: starbody.verify_starbody_suite(seed=seed, tol=tol))

    start = time.perf_counter()
    results = [r for job in jobs for r in job()]
    results.sort(key=lambda r: (r.identity, json.dumps(r.params, sort_keys=True,
                                                       default=str)))
    report = RunReport(
        command="verify",
        config={"suite": args.suite, "n": n_list, "jmax": jmax, "lmax": lmax,
                "tol": tol, "seed": seed, "n_theta": n_theta},
        results=results,
        wall_time=time.perf_counter() - start,
    )
    _write_report(report, args.out)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.identity} abs={r.max_abs_err:.3e} rel={r.max_rel_err:.3e}",
              file=sys.stderr)
    return 0 if report.fail_count == 0 else EXIT_FAIL


# --- apply ----------------------------------------------------------------------


def _zonal_direct(engine):
    """The direct zonal route of ``engine``: sample it (its order or t is the one
    parameter) at the Gauss nodes and analyze the samples."""
    def route(f: ZonalFunction, **params) -> ZonalFunction:
        (param,) = params.values()
        rule = zn.gauss_jacobi_rule(f.n, f.degree + 1)
        vals = engine(f.n, f, param, rule.nodes, degree_hint=f.degree)
        return zn.zonal_analyze(f.n, vals, f.degree, rule)
    return route


# input type -> spectral route of every family op, called as (input, family, **params)
_SPECTRAL = {
    GridFunction: lambda f, family, **params: sphere.synthesize(
        sphere.apply_spectral(sphere.analyze(f, f.grid.band_limit), family, **params),
        f.grid),
    ZonalFunction: zn.zonal_apply,
    HarmonicCoeffs: sphere.apply_spectral,
}
# apply --op -> (the multiplier family it applies, the flags it reads besides the
# family's parameters, input type -> its direct route, called as (input, **params));
# an op without a family has no spectral route and reads no --method
_OPS = {
    "cosine": ("M", ("method",), {GridFunction: sphere.cosine_direct,
                                  ZonalFunction: _zonal_direct(zn.zonal_cosine_direct)}),
    "funk": ("Funk", ("method",), {GridFunction: sphere.funk_direct}),
    "qalpha": ("Q", ("method",), {GridFunction: sphere.sine_direct}),
    "poisson": ("Poisson", ("method",),
                {ZonalFunction: _zonal_direct(zn.zonal_poisson_direct)}),
    "radon": (None, ("i",), {GridFunction: sphere.radon_transform}),
    "dualradon": (None, (), {GrassmannFunctionS2: sphere.dual_radon}),
}


def _cmd_apply(args) -> int:
    op = args.op
    family, flags, direct = _OPS[op]
    params = _family_params(args, f"op {op!r}", (*flags, *_param_names((family,))),
                            {"method": "spectral", "i": 2})
    obj = load_object(args.input)
    meta = {"op": op, **params}
    method = params.pop("method", None)
    route = (_SPECTRAL if method == "spectral" else direct).get(type(obj))
    if route is None:
        raise RepresentationError(
            f"op {op!r}{f' --method {method}' if method else ''} does not take "
            f"a {type(obj).__name__} file")
    out = route(obj, family, **params) if method == "spectral" else route(obj, **params)
    save_object(out, args.output, meta=meta)
    return 0


# --- body -----------------------------------------------------------------------


def _bodies(command: str, *paths: str) -> list:
    """The star bodies at ``paths``; all load before a non-body raises (exit 4)."""
    objs = [load_object(path) for path in paths]
    for path, obj in zip(paths, objs):
        if not isinstance(obj, starbody.StarBody):
            raise RepresentationError(f"{path}: {command} needs a star-body file")
    return objs


def _cmd_make(args) -> int:
    axes = [float(x) for x in args.axes.split(",")] if args.axes else None
    body = starbody.make_body(args.n, args.shape, r=args.r, axes=axes, p=args.p,
                              resolution=args.resolution)
    save_object(body, args.out)
    return 0


def _cmd_intersect(args) -> int:
    (body,) = _bodies("intersect", args.input)
    save_object(starbody.intersection_body(body), args.out)
    return 0


def _cmd_classify(args) -> int:
    (body,) = _bodies("classify", args.input)
    _check_bound("--margin", args.margin, positive=False)
    if not 0.0 < args.smooth < 1.0:
        raise argparse.ArgumentTypeError(f"--smooth must be in (0, 1), got {args.smooth}")
    for flag, value in (("--alpha", args.alpha), ("--alpha-min", args.alpha_min),
                        ("--alpha-max", args.alpha_max)):
        if value is not None and not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"{flag} must be finite, got {value}")
    start = time.perf_counter()
    if args.alpha is not None:
        alphas = [mult.check_order(body.n, args.alpha, mult.Family.K_CLASS)]
    elif args.steps < 1:
        raise argparse.ArgumentTypeError(f"--steps must be at least 1, got {args.steps}")
    else:
        alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.steps))
    verdicts, skipped = [], 0
    for a in alphas:
        if mult.excluded(body.n, float(a), mult.Family.K_CLASS):
            skipped += 1
            continue
        verdicts.append(starbody.classify_K_alpha(
            body, float(a), t_smooth=args.smooth, margin=args.margin))
    report = RunReport(
        command="body classify",
        config={"alpha_min": alphas[0], "alpha_max": alphas[-1],
                "steps": len(alphas), "skipped_excluded": skipped,
                "smooth": args.smooth, "margin": args.margin},
        results=[v.to_dict() for v in verdicts],
        wall_time=time.perf_counter() - start,
    )
    _write_report(report, args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "min_value", "verdict"])
            for v in verdicts:
                writer.writerow([v.alpha, v.min_value, v.member])
    return 0


def _cmd_pair_check(args) -> int:
    _check_bound("--tol", args.tol)
    K, L = _bodies("pair-check", args.k, args.l)
    rep = starbody.i_intersection_pair_check(K, L, args.i, tol=args.tol)
    print(json.dumps(rep.to_dict(), indent=1))
    return 0 if rep.passed else EXIT_FAIL


# --- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Takes -1e-1 and -inf for negative numbers, not options, as argparse's own
    pattern takes only -1 and -1.5; subparsers inherit the parser class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="coslab", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    pm = sub.add_parser("multiplier", help="tabulate family multipliers")
    pm.add_argument("--family", required=True, choices=list(_FAMILIES))
    pm.add_argument("--n", type=int, default=3)
    for name in _PARAM_NAMES:
        pm.add_argument(f"--{name}", type=float)
    pm.add_argument("--jmax", type=int, default=8)
    pm.add_argument("--format", choices=["csv", "json"], default="csv")
    pm.set_defaults(func=_cmd_multiplier)

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("--suite", required=True,
                    choices=["multipliers", "zonal", "s2", "starbody", "all"])
    pv.add_argument("--n", type=str, help="comma-separated dimensions")
    pv.add_argument("--jmax", type=int)
    pv.add_argument("--lmax", type=int)
    pv.add_argument("--tol", type=float)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--n_theta", type=int)
    pv.add_argument("--out", type=str)
    pv.add_argument("--config", type=str)
    pv.set_defaults(func=_cmd_verify)

    pa = sub.add_parser("apply", help="apply a transform to a function file")
    pa.add_argument("--op", required=True, choices=list(_OPS))
    pa.add_argument("--method", choices=["spectral", "direct"])
    for name in _param_names(family for family, _, _ in _OPS.values()):
        pa.add_argument(f"--{name}", type=float)
    pa.add_argument("--i", type=int, choices=[1, 2])
    pa.add_argument("--input", required=True)
    pa.add_argument("--output", required=True)
    pa.set_defaults(func=_cmd_apply)

    pb = sub.add_parser("body", help="star-body toolkit")
    bsub = pb.add_subparsers(dest="body_cmd", required=True)

    bm = bsub.add_parser("make")
    bm.add_argument("--shape", required=True, choices=["ball", "ellipsoid", "lp_ball"])
    bm.add_argument("--r", type=float, default=1.0)
    bm.add_argument("--axes", type=str)
    bm.add_argument("--p", type=float, default=2.0)
    bm.add_argument("--n", type=int, default=3)
    bm.add_argument("--resolution", type=int, default=starbody.DEFAULT_RESOLUTION)
    bm.add_argument("--out", required=True)
    bm.set_defaults(func=_cmd_make)

    bi = bsub.add_parser("intersect")
    bi.add_argument("--input", required=True)
    bi.add_argument("--out", required=True)
    bi.set_defaults(func=_cmd_intersect)

    bc = bsub.add_parser("classify")
    bc.add_argument("--input", required=True)
    bc.add_argument("--alpha", type=float)
    bc.add_argument("--alpha-min", type=float, default=-3.0)
    bc.add_argument("--alpha-max", type=float, default=2.9)
    bc.add_argument("--steps", type=int, default=59)
    bc.add_argument("--smooth", type=float, default=starbody.DEFAULT_SMOOTHING)
    bc.add_argument("--margin", type=float, default=starbody.DEFAULT_MARGIN)
    bc.add_argument("--out", type=str)
    bc.add_argument("--csv", type=str)
    bc.set_defaults(func=_cmd_classify)

    bp = bsub.add_parser("pair-check")
    bp.add_argument("--k", required=True)
    bp.add_argument("--l", required=True)
    bp.add_argument("--i", type=int, choices=[1, 2], default=2)
    bp.add_argument("--tol", type=float, default=1e-6)
    bp.set_defaults(func=_cmd_pair_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, OSError, ValueError, CoslabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)),
                    EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
