"""Arbitrage-free one-step shifted-SABR pricing and analytic calibration."""

from . import errors
from .ah_engine import (
    Grid,
    MarketSlice,
    PriceSurface,
    QuoteSet,
    SabrParams,
    build_uniform_grid,
    extract_quote_set,
    implied_vol_curve,
    kappa,
    local_vol,
    price_self_consistent,
    self_consistent_slice,
    solve_one_step,
    y_of_k,
)
from .analytic_calib import (
    CalibrationResult,
    calibrate,
    calibrate_uniform,
    limiting_params,
    quote_set_from_curve,
    recalibrate,
)
from .hagan_ref import hagan_implied_vol, hagan_price, hagan_price_fn
from .market_io import (
    CalibrationReport,
    FuturesOptionQuote,
    RateQuote,
    assemble_quote_set,
    parse_quotes,
    read_report,
    to_price_space,
    to_rate_space,
    write_quotes,
    write_report,
)
from .numerics import bachelier_implied_vol, thomas_solve

__version__ = "0.1.0"
