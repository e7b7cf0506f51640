"""IR futures option quote ingestion and every file format of the package.

Quotes arrive in futures-price space (strike 99.50 means a 0.50% rate) and
are flipped into rate space before the five-quote set is assembled.  Files
are LF-terminated CSV (write_csv) or indented JSON (write_json; reports are
versioned).  Both write a float as Python's shortest repr that reads back to
the same double, so the write/read round trip is lossless.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Iterable

from .ah_engine import (CalibDiagnostics, QuoteSet, SabrParams,
                        quote_set_from_curve)
from .errors import AmbiguousQuote, MalformedRow, MissingStrike, SchemaMismatch

SCHEMA_VERSION = 4
RECALIBRATION_SCHEMA_VERSION = 2
QUOTE_HEADER = ["contract", "quote_date", "kind", "strike_price", "last"]
# the smallest positive premium whose rate-space value last / 100 is a normal
# double; below it the division would drop digits, and 5e-324 would map to 0
MIN_PREMIUM = 100.0 * sys.float_info.min


@dataclass(frozen=True)
class FuturesOptionQuote:
    """One exchange quote: option on the futures price.  The contract and the
    quote date are text that the CSV file carries as it is: no leading or
    trailing whitespace, which parse_quotes strips, no carriage return, on
    which the reader would end the row, no more characters than the reader's
    field limit and nothing UTF-8 cannot encode."""

    contract: str
    quote_date: str
    kind: str  # 'C' or 'P' on the futures price
    strike_price: float  # futures price points
    last: float  # premium in price points

    def __post_init__(self):
        for name in ("contract", "quote_date"):
            text = getattr(self, name)
            if (not isinstance(text, str) or text != text.strip() or "\r" in text
                    or len(text) > csv.field_size_limit()):
                raise ValueError(
                    f"{name} must be text with no surrounding whitespace, no "
                    f"carriage return and at most {csv.field_size_limit()} "
                    f"characters, got {repr(text)[:60]}"
                )
            text.encode("utf-8")  # UnicodeEncodeError, a ValueError, on a surrogate
        if self.kind not in ("C", "P"):
            raise ValueError(f"kind must be 'C' or 'P', got {self.kind!r}")
        if not 0.0 < self.strike_price < 200.0:
            raise ValueError(f"strike_price out of range: {self.strike_price}")
        if not 0.0 <= self.last < math.inf:
            raise ValueError(f"premium must be finite and nonnegative: {self.last}")
        if 0.0 < self.last < MIN_PREMIUM:
            raise ValueError(f"premium must be 0 or at least {MIN_PREMIUM!r}, "
                             f"where last / 100 is a normal double: {self.last}")


@dataclass(frozen=True)
class RateQuote:
    """The same quote in rate space: a call on price is a put on the rate."""

    contract: str
    quote_date: str
    kind_rate: str  # 'call' or 'put' on the rate
    strike_rate: float
    premium_rate: float


def to_rate_space(q: FuturesOptionQuote) -> RateQuote:
    """strike 100 - p maps price points to percent; premiums scale by 1/100."""
    return RateQuote(
        contract=q.contract,
        quote_date=q.quote_date,
        kind_rate="put" if q.kind == "C" else "call",
        strike_rate=(100.0 - q.strike_price) / 100.0,
        premium_rate=q.last / 100.0,
    )


def to_price_space(q: RateQuote) -> FuturesOptionQuote:
    """Inverse of to_rate_space up to the roundings of the two maps.

    A strike_price in [50, 200) comes back exactly; below 50 either
    100 - strike_price or the division by 100 rounds, and it comes back
    within half an ulp of 100 (7.1e-15).  The premium comes back exactly or
    one ulp off: a positive one is at least MIN_PREMIUM, so last / 100 is a
    normal double.
    """
    return FuturesOptionQuote(
        contract=q.contract,
        quote_date=q.quote_date,
        kind="C" if q.kind_rate == "put" else "P",
        strike_price=100.0 - q.strike_rate * 100.0,
        last=q.premium_rate * 100.0,
    )


def parse_quotes(path) -> list[FuturesOptionQuote]:
    """Read the documented CSV format; malformed rows fail with their line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None
    if not rows:
        raise MalformedRow(1, "empty file")
    if [h.strip() for h in rows[0]] != QUOTE_HEADER:
        raise MalformedRow(1, f"expected header {','.join(QUOTE_HEADER)}")
    quotes = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise MalformedRow(lineno, f"expected 5 fields, got {len(row)}")
        contract, quote_date, kind, strike, last = (c.strip() for c in row)
        try:
            quotes.append(FuturesOptionQuote(
                contract, quote_date, kind, float(strike), float(last)
            ))
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
    return quotes


def write_quotes(path, quotes: Iterable[FuturesOptionQuote]) -> None:
    """Emit the CSV format parse_quotes reads (LF endings, '.' decimals)."""
    write_csv(path, QUOTE_HEADER, (
        (q.contract, q.quote_date, q.kind, q.strike_price, q.last) for q in quotes
    ))


def assemble_quote_set(
    quotes: list[RateQuote], F: float, T: float, grid_step: float,
) -> QuoteSet:
    """Build the five-quote set from rate-space quotes around the forward.

    OTM puts supply the low side, OTM calls the high side; a missing side at
    a strike is completed by parity from the other kind.  Quotes match a
    target strike when within grid_step/10 of it.  One calibration takes
    one contract on one quote date, and at most one row of a kind per
    target strike: anything else raises AmbiguousQuote.
    """
    h = grid_step
    tol = h / 10.0
    pairs = sorted({(q.contract, q.quote_date) for q in quotes})
    if len(pairs) > 1:
        raise AmbiguousQuote(
            f"quotes name {len(pairs)} (contract, quote_date) pairs, among them "
            f"{repr(pairs[0])[:60]} and {repr(pairs[1])[:60]}; give one per file")

    def find(target: float, kind: str):
        found = [q for q in quotes
                 if q.kind_rate == kind and abs(q.strike_rate - target) <= tol]
        if len(found) > 1:
            raise AmbiguousQuote(
                f"{len(found)} {kind} quotes match the strike {target:.6%}")
        return found[0] if found else None

    # half the straddle where both kinds are quoted at the forward
    found = (find(F, "put"), find(F, "call"))
    at_forward = [q.premium_rate for q in found if q is not None]
    if not at_forward:
        raise MissingStrike(F)
    atm = sum(at_forward) / len(at_forward)

    def otm_price(target: float) -> float:
        if target == F:
            return atm
        below = target < F
        q = find(target, "put" if below else "call")
        if q is not None:
            return q.premium_rate
        other = find(target, "call" if below else "put")
        if other is None:
            raise MissingStrike(target)
        gap = F - target  # call - put at this strike
        return other.premium_rate - gap if below else other.premium_rate + gap

    return quote_set_from_curve(otm_price, F, T, h)


@dataclass(frozen=True)
class CalibrationReport:
    """Everything a calibration run produced, in serializable form."""

    params: SabrParams
    diagnostics: CalibDiagnostics
    quotes: QuoteSet
    grid: dict  # {lo, hi, count, forward}
    vol_curve: list  # [{strike, normal_vol_bp}]


def write_csv(path, header, rows) -> None:
    """Write a CSV file with LF endings through csv.writer, which quotes a cell
    holding a comma or a quote: a number as its shortest round-trip repr, a
    NaN as an empty cell."""

    def cell(x):
        if isinstance(x, str):
            return x
        return "" if math.isnan(x) else float(x)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(cell, row) for row in rows)


def _check_finite(obj, where: str) -> None:
    """Raise ValueError on a non-finite float; `where` names obj's place in
    the document."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            _check_finite(val, f"{where}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _check_finite(val, f"{where}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite value at {where}")


def write_json(doc: dict, path) -> None:
    """Write doc as JSON indented by two spaces, floats as their shortest
    round-trip repr.  A non-finite float raises ValueError naming its place
    (report.smile[0].strike) before the file opens."""
    _check_finite(doc, "report")
    text = json.dumps(doc, indent=2)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text + "\n")


def report_to_dict(report: CalibrationReport) -> dict:
    return {"schema_version": SCHEMA_VERSION, **asdict(report)}


def write_report(report: CalibrationReport, path) -> None:
    write_json(report_to_dict(report), path)


def write_recalibration(source_kind: str, source: SabrParams, target: SabrParams,
                        smile: list, path) -> None:
    """The recalibrate document: the source model and its kind, the target
    model and the smile rows [{strike, source_vol_bp, target_vol_bp}]."""
    write_json({
        "schema_version": RECALIBRATION_SCHEMA_VERSION,
        "source": {"kind": source_kind, **asdict(source)},
        "target": asdict(target),
        "smile": smile,
    }, path)


def read_report(path) -> CalibrationReport:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"a report is a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    try:
        params = SabrParams(**_numbers(doc["params"], "params"))
        diagnostics = CalibDiagnostics(**_numbers(doc["diagnostics"], "diagnostics"))
        quotes = QuoteSet(**_numbers(doc["quotes"], "quotes"))
        grid = _numbers(doc["grid"], "grid", ("lo", "hi", "count", "forward"))
        if not isinstance(grid["count"], int):
            raise TypeError(f"grid.count must be an integer, got {grid['count']!r}")
        vol_curve = doc["vol_curve"]
        if not isinstance(vol_curve, list):
            raise TypeError(f"vol_curve must be a list, got {vol_curve!r}")
        for i, row in enumerate(vol_curve):
            _numbers(row, f"vol_curve[{i}]", ("strike", "normal_vol_bp"))
        return CalibrationReport(
            params=params, diagnostics=diagnostics, quotes=quotes,
            grid=grid, vol_curve=vol_curve,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed report document: {exc}") from None


def _numbers(section, where: str, keys=None) -> dict:
    """section, checked to be a JSON object of finite numbers (a bool is not
    one) and, given keys, to hold exactly those; TypeError otherwise."""
    if not isinstance(section, dict):
        raise TypeError(f"{where} must be a JSON object, got {section!r}")
    if keys is not None and sorted(section) != sorted(keys):
        raise TypeError(f"{where} must hold {', '.join(keys)}, got {list(section)}")
    for key, value in section.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not math.isfinite(value)):
            raise TypeError(f"{where}.{key} must be a finite number, got {value!r}")
    return section
