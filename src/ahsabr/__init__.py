"""Arbitrage-free one-step shifted-SABR pricing and analytic calibration.

Each export is imported from its module on first use (PEP 562), so a
program loads only the modules it uses: the CLI's price and density never
load the calibration.  A fresh process that may not write bytecode caches
compiles every module it loads.
"""

import importlib

from . import errors

_EXPORTS = {
    "ah_engine": (
        "Grid", "MarketSlice", "PriceSurface", "QuoteSet", "SabrParams",
        "build_uniform_grid", "extract_quote_set", "implied_vol_curve", "kappa",
        "local_vol", "price_self_consistent", "quote_set_from_curve",
        "self_consistent_slice", "solve_one_step", "y_of_k",
    ),
    "analytic_calib": (
        "CalibrationResult", "calibrate", "calibrate_uniform", "limiting_params",
        "recalibrate",
    ),
    "hagan_ref": ("hagan_implied_vol", "hagan_price", "hagan_price_fn"),
    "market_io": (
        "CalibrationReport", "FuturesOptionQuote", "RateQuote",
        "assemble_quote_set", "parse_quotes", "read_report", "to_price_space",
        "to_rate_space", "write_quotes", "write_report",
    ),
    "numerics": ("bachelier_implied_vol", "thomas_solve"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
