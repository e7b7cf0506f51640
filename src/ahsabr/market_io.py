"""IR futures option quote ingestion and every file format of the package.

Quotes arrive in futures-price space (strike 99.50 means a 0.50% rate) and
are flipped into rate space before the five-quote set is assembled.  Files
are LF-terminated CSV (write_csv) or indented JSON (write_json; reports are
versioned), with floats at 17 significant digits (fmt) so the write/read
round trip is lossless.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable

from .ah_engine import SabrParams
from .analytic_calib import (
    CalibDiagnostics,
    CalibrationResult,
    QuoteSet,
    quote_set_from_curve,
)
from .errors import MalformedRow, MissingStrike, SchemaMismatch

SCHEMA_VERSION = 2
QUOTE_HEADER = ["contract", "quote_date", "kind", "strike_price", "last"]


@dataclass(frozen=True)
class FuturesOptionQuote:
    """One exchange quote: option on the futures price."""

    contract: str
    quote_date: str
    kind: str  # 'C' or 'P' on the futures price
    strike_price: float  # futures price points
    last: float  # premium in price points

    def __post_init__(self):
        if self.kind not in ("C", "P"):
            raise ValueError(f"kind must be 'C' or 'P', got {self.kind!r}")
        if not 0.0 < self.strike_price < 200.0:
            raise ValueError(f"strike_price out of range: {self.strike_price}")
        if not 0.0 <= self.last < math.inf:
            raise ValueError(f"premium must be finite and nonnegative: {self.last}")


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
    """Exact inverse of to_rate_space."""
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
    target strike when within grid_step/10 of it.
    """
    h = grid_step
    tol = h / 10.0

    def find(target: float, kind: str):
        for q in quotes:
            if q.kind_rate == kind and abs(q.strike_rate - target) <= tol:
                return q
        return None

    def otm_price(target: float, kind: str) -> float:
        q = find(target, kind)
        if q is not None:
            return q.premium_rate
        other = find(target, "put" if kind == "call" else "call")
        if other is not None:
            intrinsic_gap = F - target  # call - put at this strike
            if kind == "call":
                return other.premium_rate + intrinsic_gap
            return other.premium_rate - intrinsic_gap
        raise MissingStrike(target)

    # half the straddle where both kinds are quoted at the forward
    found = (find(F, "put"), find(F, "call"))
    at_forward = [q.premium_rate for q in found if q is not None]
    if not at_forward:
        raise MissingStrike(F)
    atm = sum(at_forward) / len(at_forward)

    def price(target: float, kind: str) -> float:
        return atm if target == F else otm_price(target, kind)

    return quote_set_from_curve(price, F, T, h)


@dataclass(frozen=True)
class CalibrationReport:
    """Everything a calibration run produced, in serializable form."""

    params: SabrParams
    diagnostics: CalibDiagnostics
    quotes: QuoteSet
    grid: dict  # {lo, hi, count, forward}
    vol_curve: list  # [{strike, normal_vol_bp}]
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_result(cls, result: CalibrationResult, quotes, grid, vol_curve,
                    metadata=None):
        return cls(
            params=result.params, diagnostics=result.diagnostics,
            quotes=quotes, grid=dict(grid), vol_curve=list(vol_curve),
            metadata=dict(metadata or {}),
        )


def fmt(x: float) -> str:
    """17-significant-digit decimal; lossless for doubles."""
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a CSV file with LF endings: strings as given, numbers through
    fmt, and an empty cell where a number is undefined (NaN)."""

    def cell(x) -> str:
        if isinstance(x, str):
            return x
        return "" if math.isnan(x) else fmt(x)

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(x) for x in row) + "\n")


def _to_json(obj, where: str, indent: int) -> str:
    """Indented JSON text of obj; `where` names obj's place in the document
    for the error raised on a non-finite float."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{key}": {_to_json(val, f"{where}.{key}", indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            f"{inner}{_to_json(val, f'{where}[{i}]', indent + 1)}"
            for i, val in enumerate(obj)
        ]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value at {where}")
        return fmt(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r} at {where}")


def write_json(doc: dict, path) -> None:
    """Write doc as indented JSON with floats through fmt.  A non-finite
    float raises ValueError naming its place (report.smile[0].strike)
    before the file opens."""
    text = _to_json(doc, "report", 0)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text + "\n")


def report_to_dict(report: CalibrationReport) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": asdict(report.params),
        "diagnostics": asdict(report.diagnostics),
        "quotes": asdict(report.quotes),
        "grid": dict(report.grid),
        "vol_curve": [dict(v) for v in report.vol_curve],
    }
    if report.metadata:
        doc["metadata"] = dict(report.metadata)
    return doc


def write_report(report: CalibrationReport, path) -> None:
    write_json(report_to_dict(report), path)


def read_report(path) -> CalibrationReport:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    try:
        params = SabrParams(**doc["params"])
        diagnostics = CalibDiagnostics(**doc["diagnostics"])
        quotes = QuoteSet(**doc["quotes"])
        return CalibrationReport(
            params=params, diagnostics=diagnostics, quotes=quotes,
            grid=doc["grid"], vol_curve=doc["vol_curve"],
            metadata=doc.get("metadata", {}),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"malformed report document: {exc}") from None
