"""Quote ingestion and report persistence tests: CSV parsing with row-precise
errors, the price/rate involution, quote-set assembly with parity completion,
and lossless JSON report round trips."""

import csv
import dataclasses
import json
import math
import pathlib
import random
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import ahsabr as ah
from ahsabr.ah_engine import build_uniform_grid, extract_quote_set, price_self_consistent
from ahsabr.analytic_calib import calibrate
from ahsabr.errors import AmbiguousQuote, MalformedRow, MissingStrike, SchemaMismatch
from ahsabr.market_io import (
    MIN_PREMIUM,
    SCHEMA_VERSION,
    CalibrationReport,
    FuturesOptionQuote,
    RateQuote,
    assemble_quote_set,
    json_integer,
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

    @pytest.mark.parametrize("bad", [
        dict(contract=" EDH3"), dict(contract="EDH3 "), dict(contract="EDH3\n"),
        dict(contract="\u2028EDH3"), dict(contract=" "), dict(contract="ED\rH3"),
        dict(quote_date="2021-01-04\t"), dict(contract=None), dict(contract="ED\ud800"),
        dict(contract="E" * (csv.field_size_limit() + 1)),
    ])
    def test_text_the_csv_cannot_carry(self, bad):
        # parse_quotes strips every cell, the reader ends a row at a carriage
        # return and refuses a field past its limit, so such a quote would
        # come back changed, split or not at all
        with pytest.raises(ValueError):
            make_quote(**bad)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(contract=st.text(), quote_date=st.text(), kind=st.sampled_from("CP"),
           strike=st.floats(0.0, 200.0, exclude_min=True, exclude_max=True),
           last=st.floats(0.0, allow_infinity=False))
    def test_every_quote_round_trips(self, contract, quote_date, kind, strike, last):
        try:
            quote = FuturesOptionQuote(contract, quote_date, kind, strike, last)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "quotes.csv"
            write_quotes(path, [quote])
            assert parse_quotes(path) == [quote]


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

    def test_round_trip_within_the_two_roundings(self):
        # a strike_price in [50, 200) maps back exactly; below it within half
        # an ulp of 100; a premium whose last / 100 is normal within one ulp
        rng = random.Random(20260)
        for _ in range(20000):
            q = make_quote(
                contract=rng.choice(["EDH3", "SFRZ4"]),
                quote_date=rng.choice(["2021-01-04", "2024-06-28"]),
                kind=rng.choice("CP"),
                strike_price=rng.uniform(1e-9, 200.0),
                last=rng.choice([0.0, rng.uniform(0.0, 100.0),
                                 10.0 ** rng.uniform(-305.0, 300.0)]),
            )
            back = to_price_space(to_rate_space(q))
            assert (back.contract, back.quote_date, back.kind) == (
                q.contract, q.quote_date, q.kind)
            if q.strike_price >= 50.0:
                assert back.strike_price == q.strike_price
            assert abs(back.strike_price - q.strike_price) <= 0.5 * math.ulp(100.0)
            assert abs(back.last - q.last) <= math.ulp(q.last)

    @pytest.mark.parametrize("last", [1e-310, 5e-324, math.nextafter(MIN_PREMIUM, 0.0)])
    def test_premium_below_the_floor_rejected(self, last):
        # last / 100 would be subnormal: 1e-310 came back 9.9999999999847e-311
        # and 5e-324 came back 0.0
        with pytest.raises(ValueError, match=re.escape(
                f"premium must be 0 or at least {MIN_PREMIUM!r}, where last / "
                f"100 is a normal double: {last!r}")):
            make_quote(last=last)

    def test_smallest_premium_round_trips(self):
        assert MIN_PREMIUM / 100.0 == sys.float_info.min
        for last in (0.0, MIN_PREMIUM, math.nextafter(MIN_PREMIUM, 1.0)):
            q = make_quote(last=last)
            back = to_price_space(to_rate_space(q))
            assert abs(back.last - last) <= math.ulp(last)

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

    def test_blank_rows_skipped(self, tmp_path):
        # an empty line and a line of spaces are skipped; line numbers
        # still count them
        body = "\nEDH3,2021-01-04,C,99.50,0.135\n   \n"
        assert parse_quotes(self.write(tmp_path, body)) == [make_quote()]
        with pytest.raises(MalformedRow, match="line 5:"):
            parse_quotes(self.write(tmp_path, body + "EDH3,2021-01-04,C,99.50\n"))

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

    @pytest.mark.parametrize("last", ["1e-310", "5e-324"])
    def test_premium_below_the_floor_is_malformed(self, tmp_path, last):
        path = self.write(tmp_path, f"EDH3,2021-01-04,C,99.50,{last}\n")
        with pytest.raises(MalformedRow, match=re.escape(
                f"line 2: premium must be 0 or at least {MIN_PREMIUM!r}")):
            parse_quotes(path)

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

    @pytest.mark.parametrize("contract", ["ED,H3", '"EDH3"'])
    def test_write_then_parse_quotes_a_comma_or_quote(self, tmp_path, contract):
        # a contract with a comma must not split its row, and one with quote
        # characters must keep them
        quotes = [make_quote(contract=contract)]
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
                getattr(direct, name), rel=1e-12, abs=0.0
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
        assert q.p_minus1 == pytest.approx(direct.p_minus1, rel=1e-10, abs=0.0)

    def test_parity_completion_call_side(self, solved):
        # drop the OTM call at F+h and supply the ITM put instead; parity
        # must rebuild the call side
        _, surface = solved
        grid = surface.grid
        n = grid.forward_index
        h = float(grid.strikes[1] - grid.strikes[0])
        quotes = [
            q for q in surface_rate_quotes(surface)
            if not (q.kind_rate == "call" and abs(q.strike_rate - (0.02 + h)) < h / 10)
        ]
        quotes.append(RateQuote("T", "2021-01-04", "put", 0.02 + h,
                                float(surface.puts[n + 1])))
        q = assemble_quote_set(quotes, 0.02, 5.0, h)
        direct = extract_quote_set(surface)
        assert q.c_plus1 == pytest.approx(direct.c_plus1, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("contract,date", [("U", "2021-01-04"), ("T", "2021-01-05")])
    @pytest.mark.parametrize("first", [True, False])
    def test_one_contract_on_one_date(self, solved, contract, date, first):
        # a row of another contract or quote date, at a strike the set does
        # not read or at the forward, before the others or after them
        _, surface = solved
        h = float(surface.grid.strikes[1] - surface.grid.strikes[0])
        for strike in (0.02 + 5.0 * h, 0.02):
            extra = RateQuote(contract, date, "put", strike, 0.01)
            quotes = surface_rate_quotes(surface)
            quotes = [extra, *quotes] if first else [*quotes, extra]
            with pytest.raises(AmbiguousQuote, match=r"2 \(contract, quote_date\) pairs"):
                assemble_quote_set(quotes, 0.02, 5.0, h)

    @pytest.mark.parametrize("kind,offset", [("put", -1), ("call", 0), ("call", 2)])
    def test_two_rows_of_a_kind_at_a_strike(self, solved, kind, offset):
        # a second row of a kind the set reads, within h/10 of its strike
        _, surface = solved
        h = float(surface.grid.strikes[1] - surface.grid.strikes[0])
        strike = 0.02 + offset * h + h / 20.0
        quotes = [*surface_rate_quotes(surface),
                  RateQuote("T", "2021-01-04", kind, strike, 0.01)]
        with pytest.raises(AmbiguousQuote, match=f"2 {kind} quotes match the strike"):
            assemble_quote_set(quotes, 0.02, 5.0, h)

    def test_parity_completion_beside_rows_off_the_targets(self, solved):
        # the ITM call at F-h completes the put there, and rows of either
        # kind at strikes the set does not read change nothing
        _, surface = solved
        n = surface.grid.forward_index
        h = float(surface.grid.strikes[1] - surface.grid.strikes[0])
        quotes = [
            q for q in surface_rate_quotes(surface)
            if not (q.kind_rate == "put" and abs(q.strike_rate - (0.02 - h)) < h / 10)
        ]
        quotes += [RateQuote("T", "2021-01-04", "call", 0.02 - h, float(surface.calls[n - 1])),
                   RateQuote("T", "2021-01-04", "put", 0.02 + 3.0 * h, 0.01),
                   RateQuote("T", "2021-01-04", "put", 0.02 + 3.0 * h, 0.02)]
        q = assemble_quote_set(quotes, 0.02, 5.0, h)
        assert q.p_minus1 == pytest.approx(extract_quote_set(surface).p_minus1,
                                           rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
    def test_quote_must_sit_on_its_target(self, solved, offset):
        # a row within h/10 of a target strike but 0.02 h off it (a 0.0025
        # futures tick off a 0.125% listing) is no quote at the target: it
        # raises, naming both strikes.  1e-12 h off, as by rounding, it is
        # read as it was on the target.  At the forward the call moves
        _, surface = solved
        h = float(surface.grid.strikes[1] - surface.grid.strikes[0])
        target = 0.02 + offset * h
        quotes = surface_rate_quotes(surface)
        i = next(i for i, q in enumerate(quotes) if abs(q.strike_rate - target) < h / 10)
        on_target = assemble_quote_set(quotes, 0.02, 5.0, h)
        for shift, raises in ((0.02 * h, True), (-0.02 * h, True),
                              (1e-12 * h, False), (-1e-12 * h, False)):
            moved = list(quotes)
            moved[i] = dataclasses.replace(quotes[i], strike_rate=quotes[i].strike_rate + shift)
            if raises:
                with pytest.raises(MissingStrike, match=re.escape(
                        f"strike {target:.6%}: the quote at {moved[i].strike_rate:.6%}")):
                    assemble_quote_set(moved, 0.02, 5.0, h)
            else:
                assert assemble_quote_set(moved, 0.02, 5.0, h) == on_target

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
                getattr(direct, name), rel=1e-12, abs=0.0
            )
        recovered = calibrate(q, 0.4, 0.03).params
        assert recovered.alpha == pytest.approx(0.02, rel=1e-8, abs=0.0)
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
    return CalibrationReport(
        params=result.params, diagnostics=result.diagnostics, quotes=q,
        grid=grid, vol_curve=vol_curve,
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
        # version 1 carried the retired kappa_sigma in its quotes block,
        # versions 1 and 2 named the two inner gaps twice, and versions 1 to 3
        # carried the two roundoff residuals in their diagnostics
        for version, extra in ((1, {"kappa_sigma": "total"}), (2, {}), (3, None)):
            doc = report_to_dict(sample_report(solved))
            quotes = doc["quotes"]
            doc["schema_version"] = version
            doc["diagnostics"].update(residual_minus=-1.1e-15,
                                      residual_plus=-1.4e-16)
            if extra is not None:
                quotes.update(h_plus_nm1=quotes["h_minus_n"],
                              h_minus_np1=quotes["h_plus_n"], **extra)
            path = tmp_path / "report.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaMismatch, match=f"schema_version {version}"):
                read_report(path)

    def test_not_json(self, tmp_path):
        # not JSON, or JSON that is not an object
        path = tmp_path / "report.json"
        for text in ("not json at all", "[1, 2]", "3"):
            path.write_text(text)
            with pytest.raises(SchemaMismatch):
                read_report(path)

    @pytest.mark.parametrize("content", [
        b"not json at all", b"[1, 2]", b'{"a": "\xff"}', b"1" * 5000,
    ], ids=["text", "array", "bad-utf8", "5000-digit-int"])
    def test_unreadable_document_names_the_file(self, tmp_path, content):
        # invalid UTF-8 and an int past Python's 4300-digit conversion limit
        # fail to decode with a ValueError of their own: a SchemaMismatch too
        path = tmp_path / "report.json"
        path.write_bytes(content)
        with pytest.raises(SchemaMismatch, match=re.escape(str(path))):
            read_report(path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_wrong_field_fuzz(self, solved, data):
        # one field, section or vol_curve row of a valid report replaced by
        # anything a JSON document can hold: the reader refuses it, or every
        # number of what it returns is a finite double
        doc = report_to_dict(sample_report(solved))
        places = [(key,) for key in doc]
        places += [(name, key) for name in ("params", "diagnostics", "quotes", "grid")
                   for key in doc[name]]
        places += [("vol_curve", i, *key) for i, row in enumerate(doc["vol_curve"])
                   for key in [()] + [(k,) for k in row]]
        *path, last = data.draw(st.sampled_from(places))
        parent = doc
        for key in path:
            parent = parent[key]
        parent[last] = data.draw(WRONG_VALUE)
        with tempfile.TemporaryDirectory() as tmp:
            file = pathlib.Path(tmp) / "report.json"
            file.write_text(json.dumps(doc))
            try:
                report = read_report(file)
            except SchemaMismatch:
                return
        for number in numbers_in(report_to_dict(report)):
            assert math.isfinite(float(number)), number

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

    @pytest.mark.parametrize("section,field", [("params", "alpha"),
                                               ("quotes", "p_minus2")])
    def test_out_of_range_field(self, solved, tmp_path, section, field):
        # a value the record's own check rejects is a malformed report too
        doc = report_to_dict(sample_report(solved))
        doc[section][field] = -1.0
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match=f"malformed report.*{field}"):
            read_report(path)

    @pytest.mark.parametrize("section,field,value,message", [
        ("diagnostics", "z_minus", "abc", "diagnostics.z_minus must be a finite number"),
        (None, "grid", [1, 2], "grid must be a JSON object"),
        (None, "vol_curve", "x", "vol_curve must be a list"),
        ("params", "alpha", True, "params.alpha must be a finite number"),
        ("grid", "lo", math.nan, "grid.lo must be a finite number"),
        ("grid", "count", 81.0, "grid.count must be an integer"),
        (None, "vol_curve", [{"strike": 0.02}],
         r"vol_curve\[0\] must hold strike, normal_vol_bp"),
        # an int past the double range, which float() cannot take
        pytest.param("params", "alpha", 10**400, "params.alpha must be a finite "
                     "number", id="params-alpha-10**400"),
        pytest.param("diagnostics", "sigma_atm", 10**400, "diagnostics.sigma_atm "
                     "must be a finite number", id="diagnostics-sigma_atm-10**400"),
        pytest.param("quotes", "atm", 10**400, "quotes.atm must be a finite number",
                     id="quotes-atm-10**400"),
        pytest.param("grid", "count", 10**400, "grid.count must be a finite number",
                     id="grid-count-10**400"),
        pytest.param(None, "vol_curve", [{"strike": 0.02, "normal_vol_bp": 10**400}],
                     r"vol_curve\[0\]\.normal_vol_bp must be a finite number",
                     id="vol_curve-row-10**400"),
    ])
    def test_mistyped_field(self, solved, tmp_path, section, field, value, message):
        # a string, list, bool or NaN where the report holds finite numbers,
        # a float count or a short row is malformed, though the records' own
        # checks would let each one through
        doc = report_to_dict(sample_report(solved))
        (doc[section] if section else doc)[field] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match=f"malformed report.*{message}"):
            read_report(path)

    @pytest.mark.parametrize("count, message", [
        # the number rule runs first, on the whole grid section
        (True, "grid.count must be a finite number, got True"),
        (81.0, "grid.count must be an integer, got 81.0"),
        ("81", "grid.count must be a finite number, got '81'"),
        (10**400, "grid.count must be a finite number, got " + str(10**400)),
    ], ids=["bool", "float", "string", "huge-int"])
    def test_grid_count_integer_rule(self, solved, tmp_path, count, message):
        # the report's count goes through json_integer, the rule the CLI
        # holds its config's count to
        doc = report_to_dict(sample_report(solved))
        doc["grid"]["count"] = count
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch) as info:
            read_report(path)
        assert str(info.value) == f"malformed report document: {message}"

    def test_nan_rejected_at_write(self, solved, tmp_path):
        report = sample_report(solved)
        broken = CalibrationReport(
            params=report.params, diagnostics=report.diagnostics,
            quotes=report.quotes, grid=report.grid,
            vol_curve=[{"strike": 0.02, "normal_vol_bp": math.nan}],
        )
        path = tmp_path / "broken.json"
        with pytest.raises(ValueError, match=re.escape(
            "report.vol_curve[0].normal_vol_bp"
        )):
            write_report(broken, path)
        assert not path.exists()

    def test_floats_are_shortest_repr(self, solved, tmp_path):
        # every number is spelled as repr spells it, the shortest text that
        # parses back to the same double: -0.05, not -0.050000000000000003
        report = dataclasses.replace(
            sample_report(solved),
            grid={"lo": -0.05, "hi": 0.08, "count": 81, "forward": 0.02},
        )
        path = tmp_path / "report.json"
        write_report(report, path)
        spelled = []

        def keep(token):
            spelled.append(token)
            return float(token)

        json.loads(path.read_text(), parse_float=keep, parse_int=keep)
        numbers = list(numbers_in(report_to_dict(report)))
        assert spelled == [repr(float(x)) if isinstance(x, float) else str(x)
                           for x in numbers]
        assert [float(t).hex() for t in spelled] == [float(x).hex() for x in numbers]


# anything a JSON document can hold where a report has a number or a section
WRONG_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1.0, 81.0, 1e308, 10**400, -(10**400)]),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def numbers_in(doc):
    """The numbers of a JSON-ready document in the order json writes them."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from numbers_in(item)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


class TestJsonInteger:
    """The one rule for a JSON integer, which both the CLI's grid.count and
    read_report's take: an int that is not a bool, of any size."""

    @pytest.mark.parametrize("value", [True, False, 81.0, "81", None, [81]],
                             ids=["true", "false", "float", "string", "null",
                                  "list"])
    def test_rejected(self, value):
        with pytest.raises(SchemaMismatch) as info:
            json_integer(value, "grid.count", SchemaMismatch)
        assert str(info.value) == f"grid.count must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [0, -3, 81, 10**400],
                             ids=["0", "-3", "81", "10**400"])
    def test_accepted_unchanged(self, value):
        assert json_integer(value, "grid.count", SchemaMismatch) is value
