"""Command-line front end for pricing, calibration and recalibration.

Configuration values arrive in market units (percent for rates and model
numbers, basis points for vols, years for expiries) and are converted to
absolute units exactly once, here.  Every command writes deterministic
output: identical config and inputs give byte-identical files.

Exit codes: 0 success, 2 input error (configuration, files, quote data),
3 numerical/model error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .ah_engine import (
    SabrParams,
    build_uniform_grid,
    implied_vol_curve,
    price_self_consistent,
)
from .analytic_calib import calibrate, recalibrate, surface_price_fn
from .errors import AhSabrError, ConfigError
from .hagan_ref import hagan_implied_vol, HaganQuoteRequest, hagan_price_fn
from .market_io import (
    CalibrationReport,
    assemble_quote_set,
    fmt,
    parse_quotes,
    to_rate_space,
    write_csv,
    write_json,
    write_report,
)

PCT = 0.01
BP = 0.0001
MAX_GRID_COUNT = 100001  # nodes; checked before anything is allocated

# flag -> (type, help, config section, key); section None is the top level
_FLAGS = {
    "--grid-lo": (float, "lowest strike, percent", "grid", "lo_pct"),
    "--grid-hi": (float, "highest strike, percent", "grid", "hi_pct"),
    "--grid-count": (int, "number of grid nodes", "grid", "count"),
    "--forward": (float, "forward rate, percent", "market", "forward_pct"),
    "--expiry": (float, "expiry in years", "market", "expiry_years"),
    "--alpha": (float, "alpha, percent", "model", "alpha_pct"),
    "--beta": (float, "beta, percent", "model", "beta_pct"),
    "--rho": (float, "rho, percent", "model", "rho_pct"),
    "--nu": (float, "nu, percent", "model", "nu_pct"),
    "--shift": (float, "shift, percent", "model", "shift_pct"),
    "--quotes": (str, "quote CSV path", None, "quotes"),
    "--out": (str, "output file path", None, "out"),
}


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def _merge(config: dict, args: argparse.Namespace) -> dict:
    """Flags win over the config file."""
    if "kappa_sigma" in config:  # an old config must not silently change results
        raise ConfigError("config key kappa_sigma is gone: kappa uses sigma*sqrt(T)")
    merged = dict(config)
    for name in ("grid", "market", "model", "target"):
        section = merged.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name} must be a JSON object")
        merged[name] = dict(section)
    for flag, (_, _, section, key) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        # under recalibrate the --beta/--shift flags name the target model
        if args.command == "recalibrate" and flag in ("--beta", "--shift"):
            section = "target"
        (merged[section] if section else merged)[key] = value
    return merged


def _require(section: dict, key: str, where: str) -> float:
    if key not in section:
        raise ConfigError(f"missing {where}.{key}")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or an int past it
        raise ConfigError(f"{where}.{key} must be finite")
    return float(value)


def _parse_grid(config: dict):
    """(lo, hi, count, step) of the uniform grid."""
    grid = config["grid"]
    lo = _require(grid, "lo_pct", "grid") * PCT
    hi = _require(grid, "hi_pct", "grid") * PCT
    count = grid.get("count")
    if not isinstance(count, int) or isinstance(count, bool):
        raise ConfigError(f"grid.count must be an integer, got {count!r}")
    if count > MAX_GRID_COUNT:
        raise ConfigError(f"grid.count must be at most {MAX_GRID_COUNT}")
    h = (hi - lo) / (count - 1) if count > 1 else 0.0
    if not h > 0.0:
        raise ConfigError("grid needs count >= 2 and hi_pct above lo_pct")
    return lo, hi, count, h


def _parse_market(config: dict):
    market = config["market"]
    F = _require(market, "forward_pct", "market") * PCT
    T = _require(market, "expiry_years", "market")
    if T <= 0.0:
        raise ConfigError("market.expiry_years must be positive")
    return F, T


def _parse_model(config: dict) -> SabrParams:
    model = config["model"]
    try:
        return SabrParams(
            alpha=_require(model, "alpha_pct", "model") * PCT,
            beta=_require(model, "beta_pct", "model") * PCT,
            rho=_require(model, "rho_pct", "model") * PCT,
            nu=_require(model, "nu_pct", "model") * PCT,
            shift=_require(model, "shift_pct", "model") * PCT,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from None


def _path(config: dict, key: str, what: str) -> str:
    path = config.get(key)
    if not isinstance(path, str) or not path:
        raise ConfigError(f"missing {what} path (--{key})")
    return path


def _build_surface(config: dict):
    lo, hi, count, _ = _parse_grid(config)
    F, T = _parse_market(config)
    params = _parse_model(config)
    grid = build_uniform_grid(lo, hi, count, F)
    return price_self_consistent(grid, params, T)


def cmd_price(config: dict) -> int:
    surface = _build_surface(config)
    out = _path(config, "out", "output")
    vols = implied_vol_curve(surface)
    strikes = surface.grid.strikes
    # density is defined on interior nodes only; boundary cells stay empty
    density = np.full(strikes.size, math.nan)
    density[1:-1] = surface.density
    write_csv(out, ("strike", "call", "put", "density", "normal_vol_bp"),
              zip(strikes, surface.calls, surface.puts, density, vols / BP))
    return 0


def cmd_density(config: dict) -> int:
    surface = _build_surface(config)
    out = _path(config, "out", "output")
    strikes = surface.grid.strikes[1:-1]
    density = surface.density
    write_csv(out, ("strike", "density"), zip(strikes, density))
    h_minus, h_plus = surface.grid.steps()
    mean = float(np.sum(density * (0.5 * (h_minus + h_plus)) * strikes))
    print(f"mass={fmt(surface.density_mass())}")
    print(f"mean={fmt(mean)}")
    print(f"min_density={fmt(float(density.min()))}")
    return 0


def _vols_bp(surface) -> dict:
    """Implied normal vol in bp by strike, over the strikes that have one."""
    vols = implied_vol_curve(surface) / BP
    strikes = surface.grid.strikes.tolist()
    return {k: v for k, v in zip(strikes, vols.tolist()) if not math.isnan(v)}


def cmd_calibrate(config: dict) -> int:
    lo, hi, count, h = _parse_grid(config)
    F, T = _parse_market(config)
    beta = _require(config["model"], "beta_pct", "model") * PCT
    b = _require(config["model"], "shift_pct", "model") * PCT
    quotes_path = _path(config, "quotes", "quotes")
    out = _path(config, "out", "output")

    rate_quotes = [to_rate_space(q) for q in parse_quotes(quotes_path)]
    quote_set = assemble_quote_set(rate_quotes, F, T, h)
    result = calibrate(quote_set, beta=beta, b=b)

    grid = build_uniform_grid(lo, hi, count, F)
    surface = price_self_consistent(grid, result.params, T)
    report = CalibrationReport.from_result(
        result,
        quotes=quote_set,
        grid={"lo": lo, "hi": hi, "count": count, "forward": F},
        vol_curve=[{"strike": k, "normal_vol_bp": v}
                   for k, v in _vols_bp(surface).items()],
    )
    write_report(report, out)
    return 0


def cmd_recalibrate(config: dict) -> int:
    lo, hi, count, h = _parse_grid(config)
    F, T = _parse_market(config)
    source_params = _parse_model(config)
    source_kind = config.get("source", "hagan")
    if source_kind not in ("hagan", "onestep"):
        raise ConfigError(
            f"source must be 'hagan' or 'onestep', got {source_kind!r}"
        )
    # an absent target field defaults to the source value (identity direction)
    model = config["model"]
    target = {"beta_pct": model["beta_pct"], "shift_pct": model["shift_pct"],
              **config["target"]}
    target_beta = _require(target, "beta_pct", "target") * PCT
    target_b = _require(target, "shift_pct", "target") * PCT
    out = _path(config, "out", "output")
    grid = build_uniform_grid(lo, hi, count, F)

    if source_kind == "hagan":
        price_fn = hagan_price_fn(source_params, F, T)

        def source_vol_bp(k: float) -> float:
            return hagan_implied_vol(HaganQuoteRequest(k, F, T, source_params)) / BP
    else:
        source_surface = price_self_consistent(grid, source_params, T)
        price_fn = surface_price_fn(source_surface)
        source_vol_bp = _vols_bp(source_surface).get

    result = recalibrate(
        price_fn, F, T, target_beta=target_beta, target_b=target_b, h=h,
    )
    target_surface = price_self_consistent(grid, result.params, T)
    smile = []
    for k, tv in _vols_bp(target_surface).items():
        sv = source_vol_bp(k)
        if sv is not None:
            smile.append({"strike": k, "source_vol_bp": sv, "target_vol_bp": tv})

    doc = {
        "schema_version": 1,
        "source": {"kind": source_kind, **asdict(source_params)},
        "target": asdict(result.params),
        "smile": smile,
    }
    write_json(doc, out)
    return 0


_COMMANDS = {
    "price": cmd_price,
    "calibrate": cmd_calibrate,
    "recalibrate": cmd_recalibrate,
    "density": cmd_density,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahsabr",
        description="One-step shifted-SABR pricing and analytic calibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for flag, (type_, help_, _, _) in _FLAGS.items():
            p.add_argument(flag, type=type_, help=help_)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            config = _load_config(args.config) if args.config else {}
            return _COMMANDS[args.command](_merge(config, args))
        except OSError as exc:
            # no file is opened but --config, --quotes and --out
            raise ConfigError(f"cannot access file: {exc}") from None
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AhSabrError, ArithmeticError) as exc:
        # ArithmeticError: a float power or division left the double range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
