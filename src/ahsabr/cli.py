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

import numpy as np

from .ah_engine import (
    SabrParams,
    build_uniform_grid,
    implied_vol_curve,
    price_self_consistent,
)
from .analytic_calib import recalibrate, surface_price_fn
from .errors import AhSabrError, ConfigError, NumericalError
from .hagan_ref import hagan_implied_vol, HaganQuoteRequest, hagan_price_fn
from .market_io import (
    CalibrationReport,
    _check_finite,
    _fmt,
    _to_json,
    assemble_quote_set,
    parse_quotes,
    to_rate_space,
    write_report,
)
from .analytic_calib import calibrate

PCT = 0.01
BP = 0.0001


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def _merge(config: dict, args: argparse.Namespace) -> dict:
    """Flags win over the config file."""
    merged = dict(config)
    grid = dict(merged.get("grid", {}))
    model = dict(merged.get("model", {}))
    market = dict(merged.get("market", {}))
    if args.grid_lo is not None:
        grid["lo_pct"] = args.grid_lo
    if args.grid_hi is not None:
        grid["hi_pct"] = args.grid_hi
    if args.grid_count is not None:
        grid["count"] = args.grid_count
    if args.forward is not None:
        market["forward_pct"] = args.forward
    if args.expiry is not None:
        market["expiry_years"] = args.expiry
    # under recalibrate the --beta/--shift flags name the target model
    target_flags = ("beta", "shift") if args.command == "recalibrate" else ()
    target = dict(merged.get("target", {}))
    for name in ("alpha", "beta", "rho", "nu", "shift"):
        value = getattr(args, name)
        if value is not None:
            section = target if name in target_flags else model
            section[f"{name}_pct"] = value
    if target:
        merged["target"] = target
    if args.quotes is not None:
        merged["quotes"] = args.quotes
    if args.out is not None:
        merged["out"] = args.out
    if args.kappa_sigma is not None:
        merged["kappa_sigma"] = args.kappa_sigma
    merged["grid"] = grid
    merged["model"] = model
    merged["market"] = market
    return merged


def _require(section: dict, key: str, where: str) -> float:
    if key not in section:
        raise ConfigError(f"missing {where}.{key}")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite")
    return float(value)


def _parse_grid(config: dict):
    grid = config.get("grid", {})
    lo = _require(grid, "lo_pct", "grid") * PCT
    hi = _require(grid, "hi_pct", "grid") * PCT
    count = grid.get("count")
    if not isinstance(count, int) or isinstance(count, bool):
        raise ConfigError(f"grid.count must be an integer, got {count!r}")
    return lo, hi, count


def _parse_market(config: dict):
    market = config.get("market", {})
    F = _require(market, "forward_pct", "market") * PCT
    T = _require(market, "expiry_years", "market")
    if T <= 0.0:
        raise ConfigError("market.expiry_years must be positive")
    return F, T


def _parse_model(config: dict, section: str = "model") -> SabrParams:
    model = config.get(section, {})
    try:
        return SabrParams(
            alpha=_require(model, "alpha_pct", section) * PCT,
            beta=_require(model, "beta_pct", section) * PCT,
            rho=_require(model, "rho_pct", section) * PCT,
            nu=_require(model, "nu_pct", section) * PCT,
            shift=_require(model, "shift_pct", section) * PCT,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {section} parameters: {exc}") from None


def _kappa_sigma(config: dict) -> str:
    value = config.get("kappa_sigma", "total")
    if value not in ("total", "annualized"):
        raise ConfigError(
            f"kappa_sigma must be 'total' or 'annualized', got {value!r}"
        )
    return value


def _out_path(config: dict) -> str:
    out = config.get("out")
    if not isinstance(out, str) or not out:
        raise ConfigError("missing output path (--out)")
    return out


def _build_surface(config: dict):
    lo, hi, count = _parse_grid(config)
    F, T = _parse_market(config)
    params = _parse_model(config)
    grid = build_uniform_grid(lo, hi, count, F)
    return price_self_consistent(grid, params, T, kappa_sigma=_kappa_sigma(config))


def _csv_cell(x: float) -> str:
    """17-significant-digit decimal; empty where the value is undefined."""
    return "" if math.isnan(x) else _fmt(x)


def cmd_price(config: dict) -> int:
    surface = _build_surface(config)
    out = _out_path(config)
    vols = implied_vol_curve(surface)
    strikes = surface.grid.strikes
    # density is defined on interior nodes only; boundary cells stay empty
    density = np.full(strikes.size, math.nan)
    density[1:-1] = surface.density
    with open(out, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("strike,call,put,density,normal_vol_bp\n")
        for j in range(strikes.size):
            fh.write(
                f"{_fmt(strikes[j])},{_fmt(surface.calls[j])},"
                f"{_fmt(surface.puts[j])},{_csv_cell(density[j])},"
                f"{_csv_cell(vols[j] / BP)}\n"
            )
    return 0


def cmd_density(config: dict) -> int:
    surface = _build_surface(config)
    out = _out_path(config)
    strikes = surface.grid.strikes[1:-1]
    density = surface.density
    with open(out, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("strike,density\n")
        for k, d in zip(strikes, density):
            fh.write(f"{_fmt(k)},{_fmt(d)}\n")
    h_minus, h_plus = surface.grid.steps()
    weights = 0.5 * (h_minus + h_plus)
    mass = float(np.sum(density * weights))
    mean = float(np.sum(density * weights * strikes))
    print(f"mass={_fmt(mass)}")
    print(f"mean={_fmt(mean)}")
    print(f"min_density={_fmt(float(density.min()))}")
    return 0


def _vol_curve_rows(surface):
    vols = implied_vol_curve(surface)
    rows = []
    for k, v in zip(surface.grid.strikes, vols):
        if not math.isnan(v):
            rows.append({"strike": float(k), "normal_vol_bp": float(v / BP)})
    return rows


def cmd_calibrate(config: dict) -> int:
    lo, hi, count = _parse_grid(config)
    F, T = _parse_market(config)
    model = config.get("model", {})
    beta = _require(model, "beta_pct", "model") * PCT
    b = _require(model, "shift_pct", "model") * PCT
    quotes_path = config.get("quotes")
    if not isinstance(quotes_path, str) or not quotes_path:
        raise ConfigError("missing quotes path (--quotes)")
    out = _out_path(config)

    h = (hi - lo) / (count - 1) if count > 1 else 0.0
    if h <= 0.0:
        raise ConfigError("grid must contain at least two points")
    price_quotes = parse_quotes(quotes_path)
    rate_quotes = [to_rate_space(q) for q in price_quotes]
    quote_set = assemble_quote_set(
        rate_quotes, F, T, h, kappa_sigma=_kappa_sigma(config)
    )
    result = calibrate(quote_set, beta=beta, b=b)

    grid = build_uniform_grid(lo, hi, count, F)
    surface = price_self_consistent(
        grid, result.params, T, kappa_sigma=_kappa_sigma(config)
    )
    report = CalibrationReport.from_result(
        result,
        quotes=quote_set,
        grid={"lo": lo, "hi": hi, "count": count, "forward": F},
        vol_curve=_vol_curve_rows(surface),
    )
    write_report(report, out)
    return 0


def cmd_recalibrate(config: dict) -> int:
    lo, hi, count = _parse_grid(config)
    F, T = _parse_market(config)
    source_params = _parse_model(config)
    source_kind = config.get("source", "hagan")
    if source_kind not in ("hagan", "onestep"):
        raise ConfigError(
            f"source must be 'hagan' or 'onestep', got {source_kind!r}"
        )
    target = dict(config.get("target", {}))
    # an absent target field defaults to the source value (identity direction)
    model = config.get("model", {})
    if "beta_pct" not in target and "beta_pct" in model:
        target["beta_pct"] = model["beta_pct"]
    if "shift_pct" not in target and "shift_pct" in model:
        target["shift_pct"] = model["shift_pct"]
    target_beta = _require(target, "beta_pct", "target") * PCT
    target_b = _require(target, "shift_pct", "target") * PCT
    out = _out_path(config)

    if count < 2:
        raise ConfigError("grid must contain at least two points")
    h = (hi - lo) / (count - 1)
    kappa_sigma = _kappa_sigma(config)
    grid = build_uniform_grid(lo, hi, count, F)
    if source_kind == "hagan":
        price_fn = hagan_price_fn(source_params, F, T)

        def source_vol_bp(k: float) -> float:
            req = HaganQuoteRequest(k, F, T, source_params)
            return hagan_implied_vol(req) / BP

        source_vols = None
    else:
        source_surface = price_self_consistent(
            grid, source_params, T, kappa_sigma=kappa_sigma
        )
        price_fn = surface_price_fn(source_surface)
        source_vols = dict(
            (float(k), float(v / BP))
            for k, v in zip(grid.strikes, implied_vol_curve(source_surface))
            if not math.isnan(v)
        )
        source_vol_bp = None

    result = recalibrate(
        price_fn, F, T, target_beta=target_beta, target_b=target_b, h=h,
        kappa_sigma=kappa_sigma,
    )
    target_surface = price_self_consistent(
        grid, result.params, T, kappa_sigma=kappa_sigma
    )
    target_vols = implied_vol_curve(target_surface)

    smile = []
    for k, tv in zip(grid.strikes, target_vols):
        if math.isnan(tv):
            continue
        if source_vols is not None:
            sv = source_vols.get(float(k))
            if sv is None:
                continue
        else:
            sv = source_vol_bp(float(k))
        smile.append({
            "strike": float(k),
            "source_vol_bp": sv,
            "target_vol_bp": float(tv / BP),
        })

    p, q = source_params, result.params
    doc = {
        "schema_version": 1,
        "source": {
            "kind": source_kind,
            "alpha": p.alpha, "beta": p.beta, "rho": p.rho,
            "nu": p.nu, "shift": p.shift,
        },
        "target": {
            "alpha": q.alpha, "beta": q.beta, "rho": q.rho,
            "nu": q.nu, "shift": q.shift,
        },
        "smile": smile,
    }
    _check_finite(doc)
    with open(out, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(_to_json(doc) + "\n")
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
        p.add_argument("--grid-lo", type=float, help="lowest strike, percent")
        p.add_argument("--grid-hi", type=float, help="highest strike, percent")
        p.add_argument("--grid-count", type=int, help="number of grid nodes")
        p.add_argument("--forward", type=float, help="forward rate, percent")
        p.add_argument("--expiry", type=float, help="expiry in years")
        p.add_argument("--alpha", type=float, help="alpha, percent")
        p.add_argument("--beta", type=float, help="beta, percent")
        p.add_argument("--rho", type=float, help="rho, percent")
        p.add_argument("--nu", type=float, help="nu, percent")
        p.add_argument("--shift", type=float, help="shift, percent")
        p.add_argument("--quotes", help="quote CSV path")
        p.add_argument("--out", help="output file path")
        p.add_argument(
            "--kappa-sigma", choices=("total", "annualized"),
            help="sigma convention inside the kappa adjustment",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        config = _merge(config, args)
        try:
            return _COMMANDS[args.command](config)
        except OSError as exc:
            # the commands open no file but --quotes and --out
            raise ConfigError(f"cannot access file: {exc}") from None
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, AhSabrError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
