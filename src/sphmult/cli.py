"""Batch command line front end.

Four subcommands:

* ``norm-table``  -- multiplier-norm table over a (sigma, t) grid (SO0 only),
                     computed serially (``--workers`` is accepted and ignored),
* ``eval``        -- one spherical value by every applicable method,
* ``verify``      -- the cross-validation suite with a JSON report,
* ``tree``        -- homogeneous-tree sphere sizes, convolution table and
                     pair-count verdict (closed form against a direct count).

Flag values override config-file values, which override defaults.  Exit
codes: 0 success, 1 verification/capacity failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from . import groups
from .errors import CapacityError, DomainError, SphmultError

# The numeric modules are imported by the commands that run them, so
# ``tree`` starts without them.  They defer numpy to its first use, so only
# ``verify`` and ``eval`` on so0 (its quadrature form) import numpy;
# ``norm-table`` and ``eval`` on su, sp and f4 evaluate closed forms only.

_FLOAT_FMT = "%.17g"


@dataclass
class RunConfig:
    command: str = ""
    family: str = "so0"
    n: int = 2
    sigma_range: str = "-0.45:0.45:7"
    t_range: str = "0:2:5"
    sigma: float = 0.0
    t: float = 0.0
    r: float = 1.0
    tol: float = 1e-8
    out: str = ""
    format: str = ""
    checks: str | None = None
    gamma_perturbation: float = 0.0
    m_factors: int = 3
    n_factors: int = 0
    radius: int = 4
    workers: int = 4  # accepted and ignored: norm-table is serial


def _parse_range(text: str) -> list[float]:
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise DomainError(f"bad range {text!r}; expected a:b:steps") from exc
    if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bad range {text!r}; steps >= 1 and finite endpoints")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    file_values = _load_config(args.config) if getattr(args, "config", None) else {}
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(config, f.name, flag_value)
        elif f.name in file_values:
            default = getattr(config, f.name)
            value = file_values[f.name]
            if default is not None and value is not None:
                value = type(default)(value)
            setattr(config, f.name, value)
    return config


def _emit(text: str, out_path: str):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _norm_row(strip_norm, m: int, sigma: float, t: float) -> dict:
    position, norm = strip_norm(m, complex(sigma, t))
    status = "NOT_MULTIPLIER" if norm is None else position.name
    return {"sigma": sigma, "t": t, "norm": norm, "status": status}


def cmd_norm_table(config: RunConfig) -> int:
    from .spherical import strip_norm

    config.format = config.format or "csv"
    group = groups.params_for(config.family, config.n)
    if group.family is not groups.Family.SO0:
        raise DomainError("norm-table supports the so0 family only")
    sigmas = _parse_range(config.sigma_range)
    ts = _parse_range(config.t_range)
    rows = [_norm_row(strip_norm, group.m, sigma, t) for sigma in sigmas for t in ts]
    if config.format == "csv":
        lines = ["sigma,t,norm,status"]
        for row in rows:
            norm = "" if row["norm"] is None else _FLOAT_FMT % row["norm"]
            lines.append(
                f"{_FLOAT_FMT % row['sigma']},{_FLOAT_FMT % row['t']},{norm},{row['status']}"
            )
        _emit("\n".join(lines) + "\n", config.out)
    elif config.format == "json":
        _emit(json.dumps({"m": group.m, "rows": rows}, indent=2) + "\n", config.out)
    else:
        raise DomainError(f"unknown output format {config.format!r}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    from . import spherical
    from .quadrature import QuadratureSpec

    if not (math.isfinite(config.tol) and config.tol > 0):
        raise DomainError("tolerance must be finite and positive")
    config.format = config.format or "text"
    group = groups.params_for(config.family, config.n)
    s = complex(config.sigma, config.t)
    quad_spec = QuadratureSpec(relative_tolerance=config.tol)
    result = spherical.phi(group, s, config.r)
    report = {
        "group": str(group),
        "m": group.m,
        "m0": group.m0,
        "sigma": config.sigma,
        "t": config.t,
        "r": config.r,
        "methods": {result.method.value: _complex_pair(result.value)},
    }
    if group.family is groups.Family.SO0:
        report["methods"]["integral_quadrature"] = _complex_pair(
            spherical.phi_lorentz_integral(group.m, s, config.r, quad_spec)
        )
        report["methods"]["hypergeometric_second_form"] = _complex_pair(
            spherical.phi_lorentz_hyp2(group.m, s, abs(config.r))
        )
    if s.real > 0:
        report["methods"]["asymptotic"] = _complex_pair(
            spherical.phi_asymptotic(group, s, config.r)
        )
    if group.family is groups.Family.SO0:
        try:
            report["cb_norm"] = spherical.cb_norm_lorentz(group.m, s)
        except SphmultError:
            report["cb_norm"] = None
            report["cb_norm_status"] = "NOT_MULTIPLIER"
    if config.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", config.out)
    else:
        lines = [f"phi_s(a_r) on {report['group']} at s={s}, r={config.r}"]
        for name, (re_part, im_part) in report["methods"].items():
            lines.append(f"  {name:28s} {re_part:+.15g} {im_part:+.15g}j")
        if "cb_norm" in report:
            norm = report["cb_norm"]
            lines.append(
                "  cb multiplier norm           "
                + (f"{norm:.15g}" if norm is not None else "NOT_MULTIPLIER")
            )
        _emit("\n".join(lines) + "\n", config.out)
    return 0


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cmd_verify(config: RunConfig) -> int:
    from . import verify

    selected = None
    if config.checks is not None:
        selected = [c for c in config.checks.split(",") if c.strip()]
        if not selected:
            raise DomainError("empty check selection")
    try:
        results = verify.run_checks(
            selected, gamma_perturbation=config.gamma_perturbation
        )
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    report = {
        "checks": [r.as_dict() for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    _emit(json.dumps(report, indent=2) + "\n", config.out)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"[{status}] {r.check_id}: error {r.achieved_error:.3e}"
            f" (tolerance {r.tolerance:.1e})",
            file=sys.stderr,
        )
    return 0 if report["failed"] == 0 else 1


def cmd_tree(config: RunConfig) -> int:
    from . import tree

    config.format = config.format or "text"
    spec = tree.FreeProductSpec(config.m_factors, config.n_factors)
    shells = tree.spheres(spec, config.radius)
    sizes = [len(s) for s in shells]
    formula = [tree.sphere_size(spec, n) for n in range(config.radius + 1)]
    shell = min(config.radius, 3)
    table = {}
    for i in range(1, shell + 1):
        for j in range(i, shell + 1):
            conv = tree.radial_convolve(
                tree.shell_indicator(i), tree.shell_indicator(j), spec
            )
            table[f"chi_{i}*chi_{j}"] = {str(k): int(v) for k, v in conv.shells}
    reps = [tree.representative(spec, n) for n in range(1, shell + 1)]
    constant = all(
        tree.bz_counts(spec, x, y, shell + 1) == tree.direct_pair_counts(spec, x, y)
        for x in reps for y in reps
    )
    report = {
        "factors": {"involutive": spec.involutive, "free": spec.free},
        "degree": spec.degree,
        "sphere_sizes": sizes,
        "sizes_match_formula": sizes == formula,
        "convolution_table": table,
        "pair_counts_constant": constant,
    }
    if config.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", config.out)
    else:
        lines = [
            f"tree of degree {spec.degree} "
            f"(M={spec.involutive} involutive, N={spec.free} free factors)",
            "sphere sizes: " + ", ".join(str(x) for x in sizes)
            + ("  (matches (q+1) q^(n-1))" if sizes == formula else "  MISMATCH"),
        ]
        for name, shells_map in table.items():
            body = ", ".join(f"shell {k}: {v}" for k, v in shells_map.items())
            lines.append(f"{name}: {body}")
        lines.append(
            "pair counts constant on each shell: "
            + ("yes" if constant else "NO")
        )
        _emit("\n".join(lines) + "\n", config.out)
    return 0 if sizes == formula and constant else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphmult",
        description="spherical multiplier norms, special-function identities, "
        "and tree radialization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json", "text"))

    p_norm = sub.add_parser("norm-table", help="multiplier norm over an s-grid")
    add_common(p_norm)
    p_norm.add_argument("--family", help="group family (so0 only)")
    p_norm.add_argument("--n", type=int, help="rank parameter n >= 2")
    p_norm.add_argument("--sigma-range", dest="sigma_range", help="a:b:steps")
    p_norm.add_argument("--t-range", dest="t_range", help="a:b:steps")
    p_norm.add_argument("--workers", type=int, help="accepted and ignored (runs serially)")

    p_eval = sub.add_parser("eval", help="evaluate one spherical value")
    add_common(p_eval)
    p_eval.add_argument("--family", help="so0, su, sp or f4")
    p_eval.add_argument("--n", type=int, help="rank parameter n >= 2")
    p_eval.add_argument("--sigma", type=float, help="Re(s)")
    p_eval.add_argument("--t", type=float, help="Im(s)")
    p_eval.add_argument("--r", type=float, help="radial coordinate")
    p_eval.add_argument("--tol", type=float, help="tolerance of the so0 quadrature form")

    p_verify = sub.add_parser("verify", help="run the identity suite")
    add_common(p_verify)
    p_verify.add_argument("--checks", help="comma-separated check ids")
    p_verify.add_argument(
        "--gamma-perturbation",
        dest="gamma_perturbation",
        type=float,
        help=argparse.SUPPRESS,  # sensitivity-test hook
    )

    p_tree = sub.add_parser("tree", help="tree sphere and convolution report")
    add_common(p_tree)
    p_tree.add_argument("--m-factors", dest="m_factors", type=int,
                        help="number of involutive factors")
    p_tree.add_argument("--n-factors", dest="n_factors", type=int,
                        help="number of infinite cyclic factors")
    p_tree.add_argument("--radius", type=int, help="ball radius to enumerate")

    return parser


_COMMANDS = {
    "norm-table": cmd_norm_table,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "tree": cmd_tree,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _merge_config(args)
        return _COMMANDS[args.command](config)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 1
    except SphmultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
