"""Quote ingestion and report persistence tests: CSV parsing with row-precise
errors, the price/rate involution, quote-set assembly with parity completion,
and lossless JSON report round trips."""

import json
import math
import re

import pytest

import ahsabr as ah
from ahsabr.ah_engine import build_uniform_grid, extract_quote_set, price_self_consistent
from ahsabr.analytic_calib import calibrate
from ahsabr.errors import MalformedRow, MissingStrike, SchemaMismatch
from ahsabr.market_io import (
    SCHEMA_VERSION,
    CalibrationReport,
    FuturesOptionQuote,
    RateQuote,
    assemble_quote_set,
    parse_quotes,
    read_report,
    report_to_dict,
    to_price_space,
    to_rate_space,
    write_quotes,
    write_report,
)

from conftest import ED_EXPIRY, ED_FORWARD


def make_quote(**kw):
    base = dict(
        contract="EDH3", quote_date="2021-01-04", kind="C",
        strike_price=99.50, last=0.135,
    )
    base.update(kw)
    return FuturesOptionQuote(**base)


class TestFuturesOptionQuote:
    def test_valid(self):
        q = make_quote()
        assert q.kind == "C" and q.strike_price == 99.50

    @pytest.mark.parametrize("bad", [
        dict(kind="call"), dict(strike_price=0.0), dict(strike_price=250.0),
        dict(last=-0.01), dict(last=math.nan), dict(last=math.inf),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            make_quote(**bad)


class TestRateConversion:
    def test_documented_example(self):
        r = to_rate_space(make_quote())
        assert r.kind_rate == "put"  # call on price is a put on the rate
        assert r.strike_rate == pytest.approx(0.0050, abs=1e-15)
        assert r.premium_rate == pytest.approx(0.00135, abs=1e-18)

    def test_involution(self):
        for kind in ("C", "P"):
            q = make_quote(kind=kind, strike_price=99.875, last=0.0825)
            assert to_price_space(to_rate_space(q)) == q

    def test_spacing_preserved(self):
        qs = [make_quote(strike_price=99.0 + 0.125 * j) for j in range(5)]
        rs = [to_rate_space(q) for q in qs]
        gaps = {
            round(abs(rs[j + 1].strike_rate - rs[j].strike_rate), 12)
            for j in range(4)
        }
        assert gaps == {0.00125}


class TestParseQuotes:
    HEADER = "contract,quote_date,kind,strike_price,last\n"

    def write(self, tmp_path, body):
        path = tmp_path / "quotes.csv"
        path.write_text(self.HEADER + body, encoding="utf-8")
        return path

    def test_single_row(self, tmp_path):
        path = self.write(tmp_path, "EDH3,2021-01-04,C,99.50,0.135\n")
        quotes = parse_quotes(path)
        assert quotes == [make_quote()]

    def test_uniform_25_strike_file(self, tmp_path):
        rows = "".join(
            f"EDH3,2021-01-04,P,{99.0 + 0.125 * j},{0.01 * (j + 1)}\n"
            for j in range(25)
        )
        quotes = parse_quotes(self.write(tmp_path, rows))
        assert len(quotes) == 25
        gaps = {
            round(quotes[j + 1].strike_price - quotes[j].strike_price, 9)
            for j in range(24)
        }
        assert gaps == {0.125}

    def test_negative_premium_line_number(self, tmp_path):
        body = "EDH3,2021-01-04,C,99.50,0.135\nEDH3,2021-01-04,P,99.25,-0.1\n"
        with pytest.raises(MalformedRow) as err:
            parse_quotes(self.write(tmp_path, body))
        assert "3" in str(err.value)

    def test_bad_field_count(self, tmp_path):
        with pytest.raises(MalformedRow):
            parse_quotes(self.write(tmp_path, "EDH3,2021-01-04,C,99.50\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(MalformedRow):
            parse_quotes(self.write(tmp_path, "EDH3,2021-01-04,C,99.50,abc\n"))

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("a,b,c,d,e\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            parse_quotes(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedRow):
            parse_quotes(path)

    def test_write_then_parse(self, tmp_path):
        quotes = [make_quote(strike_price=99.0 + 0.125 * j) for j in range(5)]
        path = tmp_path / "out.csv"
        write_quotes(path, quotes)
        assert parse_quotes(path) == quotes


def surface_rate_quotes(surface, around=2):
    """OTM rate quotes at the five calibration strikes of a solved surface."""
    grid = surface.grid
    n = grid.forward_index
    quotes = []
    for off in range(-around, around + 1):
        k = float(grid.strikes[n + off])
        kind = "put" if off < 0 else "call" if off > 0 else None
        if kind is None:
            quotes.append(RateQuote("T", "2021-01-04", "call", k,
                                    float(surface.calls[n])))
            quotes.append(RateQuote("T", "2021-01-04", "put", k,
                                    float(surface.puts[n])))
        else:
            price = surface.puts[n + off] if kind == "put" else surface.calls[n + off]
            quotes.append(RateQuote("T", "2021-01-04", kind, k, float(price)))
    return quotes


@pytest.fixture(scope="module")
def solved():
    params = ah.SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
    grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
    return params, price_self_consistent(grid, params, 5.0)


class TestAssembleQuoteSet:
    def test_matches_extract_quote_set(self, solved):
        _, surface = solved
        h = float(surface.grid.strikes[1] - surface.grid.strikes[0])
        quotes = surface_rate_quotes(surface)
        q = assemble_quote_set(quotes, 0.02, 5.0, h)
        direct = extract_quote_set(surface)
        for name in ("p_minus2", "p_minus1", "atm", "c_plus1", "c_plus2"):
            assert getattr(q, name) == pytest.approx(
                getattr(direct, name), rel=1e-12
            )

    def test_parity_completion(self, solved):
        # drop the OTM put at F-h and supply the ITM call instead; parity
        # must rebuild the put side
        _, surface = solved
        grid = surface.grid
        n = grid.forward_index
        h = float(grid.strikes[1] - grid.strikes[0])
        quotes = [
            q for q in surface_rate_quotes(surface)
            if not (q.kind_rate == "put" and abs(q.strike_rate - (0.02 - h)) < h / 10)
        ]
        quotes.append(RateQuote("T", "2021-01-04", "call", 0.02 - h,
                                float(surface.calls[n - 1])))
        q = assemble_quote_set(quotes, 0.02, 5.0, h)
        direct = extract_quote_set(surface)
        assert q.p_minus1 == pytest.approx(direct.p_minus1, rel=1e-10)

    def test_missing_strike(self, solved):
        _, surface = solved
        h = float(surface.grid.strikes[1] - surface.grid.strikes[0])
        quotes = [
            q for q in surface_rate_quotes(surface)
            if abs(q.strike_rate - (0.02 + 2.0 * h)) > h / 10
        ]
        with pytest.raises(MissingStrike):
            assemble_quote_set(quotes, 0.02, 5.0, h)

    def test_csv_round_trip_calibrates(self, solved, tmp_path):
        # engine prices -> price-space CSV -> parse -> rate space -> quote
        # set: the serialization must not perturb the recovered parameters
        params, surface = solved
        h = float(surface.grid.strikes[1] - surface.grid.strikes[0])
        rate_quotes = surface_rate_quotes(surface)
        path = tmp_path / "synthetic.csv"
        write_quotes(path, [to_price_space(q) for q in rate_quotes])
        reread = [to_rate_space(q) for q in parse_quotes(path)]
        q = assemble_quote_set(reread, 0.02, 5.0, h)
        direct = extract_quote_set(surface)
        for name in ("p_minus2", "p_minus1", "atm", "c_plus1", "c_plus2"):
            assert getattr(q, name) == pytest.approx(
                getattr(direct, name), rel=1e-12
            )
        recovered = calibrate(q, 0.4, 0.03).params
        assert recovered.alpha == pytest.approx(0.02, rel=1e-8)
        assert recovered.nu == pytest.approx(0.30, abs=1e-8)
        assert recovered.rho == pytest.approx(-0.25, abs=1e-8)


def sample_report(solved):
    params, surface = solved
    q = extract_quote_set(surface)
    result = calibrate(q, 0.4, 0.03)
    vol_curve = [
        {"strike": 0.02, "normal_vol_bp": 95.0},
        {"strike": 0.025, "normal_vol_bp": 96.5},
    ]
    grid = {"lo": -0.02, "hi": 0.08, "count": 81, "forward": 0.02}
    return CalibrationReport.from_result(
        result, q, grid, vol_curve,
        metadata={"contract": "EDH3", "quote_date": "2021-01-04"},
    )


class TestReportRoundTrip:
    def test_structural_equality(self, solved, tmp_path):
        report = sample_report(solved)
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = read_report(path)
        assert loaded.params == report.params
        assert loaded.diagnostics == report.diagnostics
        assert loaded.quotes == report.quotes
        assert loaded.grid == report.grid
        assert loaded.vol_curve == report.vol_curve
        assert loaded.metadata == report.metadata

    def test_rewrite_is_bit_identical(self, solved, tmp_path):
        report = sample_report(solved)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, p1)
        write_report(read_report(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_schema_version(self, solved, tmp_path):
        report = sample_report(solved)
        path = tmp_path / "report.json"
        write_report(report, path)
        text = path.read_text().replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 99'
        )
        path.write_text(text)
        with pytest.raises(SchemaMismatch):
            read_report(path)

    def test_version_1_report_refused(self, solved, tmp_path):
        # version 1 carried the retired kappa_sigma in its quotes block
        doc = report_to_dict(sample_report(solved))
        doc["schema_version"] = 1
        doc["quotes"]["kappa_sigma"] = "total"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match="schema_version 1"):
            read_report(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaMismatch):
            read_report(path)

    def test_missing_section(self, solved, tmp_path):
        report = sample_report(solved)
        path = tmp_path / "report.json"
        write_report(report, path)
        import json

        doc = json.loads(path.read_text())
        del doc["params"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            read_report(path)

    def test_nan_rejected_at_write(self, solved, tmp_path):
        report = sample_report(solved)
        broken = CalibrationReport(
            params=report.params, diagnostics=report.diagnostics,
            quotes=report.quotes, grid=report.grid,
            vol_curve=[{"strike": 0.02, "normal_vol_bp": math.nan}],
            metadata=report.metadata,
        )
        path = tmp_path / "broken.json"
        with pytest.raises(ValueError, match=re.escape(
            "report.vol_curve[0].normal_vol_bp"
        )):
            write_report(broken, path)
        assert not path.exists()

    def test_seventeen_digit_floats(self, solved, tmp_path):
        report = sample_report(solved)
        path = tmp_path / "report.json"
        write_report(report, path)
        text = path.read_text()
        alpha = report.params.alpha
        assert format(alpha, ".17g") in text
        assert float(format(alpha, ".17g")) == alpha  # lossless
