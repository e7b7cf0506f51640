"""CLI tests, run in-process through main(argv): exit codes, determinism,
the published fixtures, and the quote-file calibration workflow."""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ahsabr as ah
from ahsabr import cli
from ahsabr.cli import main
from ahsabr.market_io import to_price_space, write_quotes, RateQuote

from conftest import (
    ED_EXPIRY,
    ED_FORWARD,
    ED_GRID,
    ED_PARAMS,
    HAGAN_CASES,
    HAGAN_EXPIRY,
    HAGAN_FORWARD,
    HAGAN_SOURCE,
    HAGAN_STEP,
)


def pct(x):
    return x * 100.0


def write_config(tmp_path, name="config.json", **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def ed_config(tmp_path, out, **extra):
    doc = dict(
        grid={"lo_pct": pct(ED_GRID[0]), "hi_pct": pct(ED_GRID[1]),
              "count": ED_GRID[2]},
        market={"forward_pct": pct(ED_FORWARD), "expiry_years": ED_EXPIRY},
        model={f"{k}_pct": pct(v) for k, v in ED_PARAMS.items()},
        out=str(out),
    )
    doc.update(extra)
    return write_config(tmp_path, **doc)


class TestPrice:
    def test_published_grid_row_count(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["price", "--config", ed_config(tmp_path, out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strike,call,put,density,normal_vol_bp"
        assert len(lines) == 1 + 241

    def test_cells_are_shortest_repr(self, tmp_path):
        # every number as repr spells it: the forward node is 0.0025, not
        # 0.0025000000000000001; the boundary densities are empty cells
        out = tmp_path / "surface.csv"
        assert main(["price", "--config", ed_config(tmp_path, out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert ["0.0025"] == [row[0] for row in rows if float(row[0]) == ED_FORWARD]
        assert rows[0][3] == rows[-1][3] == ""
        assert all(c == repr(float(c)) for row in rows for c in row if c)

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = ed_config(tmp_path, out1)
        assert main(["price", "--config", cfg]) == 0
        assert main(["price", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_forward_exit_2(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -5.0, "hi_pct": 25.0, "count": 241},
            market={"expiry_years": 2.0},
            model={f"{k}_pct": pct(v) for k, v in ED_PARAMS.items()},
            out=str(out),
        )
        assert main(["price", "--config", cfg]) == 2
        assert "market.forward_pct" in capsys.readouterr().err

    def test_numerical_error_exit_3(self, tmp_path, capsys):
        # grid extends past -shift: the model cannot price there
        out = tmp_path / "surface.csv"
        cfg = ed_config(tmp_path, out)
        assert main(["price", "--config", cfg, "--shift", "4.0"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "density", "recalibrate"])
    def test_tiny_expiry_exit_3(self, tmp_path, capsys, command):
        # the one-step coefficients off the forward underflow to zero, and
        # the Hagan source prices its ATM call at zero: numerical errors,
        # not input
        out = tmp_path / "surface.csv"
        cfg = ed_config(tmp_path, out, market={
            "forward_pct": pct(ED_FORWARD), "expiry_years": 1e-300})
        assert main([command, "--config", cfg]) == 3
        if command == "recalibrate":
            assert_one_line_error(capsys, "PriceOutOfBounds", "at strike")
        else:
            assert_one_line_error(capsys, "NumericalError", "double range")
        assert not out.exists()

    @pytest.mark.parametrize("beta_pct", [0.0, 50.0, 100.0])
    @pytest.mark.parametrize("command,source", [
        pytest.param("price", "onestep", id="price"),
        pytest.param("density", "onestep", id="density"),
        pytest.param("recalibrate", "onestep", id="recalibrate"),
        pytest.param("recalibrate", "hagan", id="recalibrate-hagan"),
    ])
    def test_nonpositive_shifted_strike_exit_3(self, tmp_path, capsys,
                                               command, source, beta_pct):
        # forward -1% with no shift puts the lowest strikes and the forward
        # below -shift; every beta fails on the strikes, not on the guess,
        # and the Hagan source fails on its first sampled strike
        out = tmp_path / "surface.csv"
        cfg = ed_config(
            tmp_path, out, source=source,
            market={"forward_pct": -1.0, "expiry_years": ED_EXPIRY},
            model={**{f"{k}_pct": pct(v) for k, v in ED_PARAMS.items()},
                   "beta_pct": beta_pct, "shift_pct": 0.0},
        )
        assert main([command, "--config", cfg]) == 3
        assert_one_line_error(capsys, "NonpositiveShiftedStrike", "k + shift > 0")
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "surface.csv"
        cfg = ed_config(tmp_path, out)
        assert main(["price", "--config", cfg, "--grid-count", "41"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 41


class TestDensity:
    def test_mass_and_min_on_wide_grid(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -2.0, "hi_pct": 12.0, "count": 281},
            market={"forward_pct": 2.0, "expiry_years": 2.0},
            model={"alpha_pct": 1.0, "beta_pct": 40.0, "rho_pct": -20.0,
                   "nu_pct": 30.0, "shift_pct": 3.0},
            out=str(out),
        )
        assert main(["density", "--config", cfg]) == 0
        stats = dict(
            line.split("=") for line in capsys.readouterr().out.splitlines()
        )
        assert 0.999 <= float(stats["mass"]) <= 1.001
        assert float(stats["min_density"]) >= -1e-12
        assert float(stats["mean"]) == pytest.approx(0.02, abs=2e-4)

    def test_narrow_grid_mass_reported_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": 1.0, "hi_pct": 3.0, "count": 41},
            market={"forward_pct": 2.0, "expiry_years": 2.0},
            model={"alpha_pct": 1.0, "beta_pct": 40.0, "rho_pct": -20.0,
                   "nu_pct": 30.0, "shift_pct": 3.0},
            out=str(out),
        )
        assert main(["density", "--config", cfg]) == 0
        stats = dict(
            line.split("=") for line in capsys.readouterr().out.splitlines()
        )
        assert float(stats["mass"]) < 0.99

    def test_flat_model_symmetric_kernel(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        # zero shift requires strictly positive strikes
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": 0.25, "hi_pct": 3.75, "count": 141},
            market={"forward_pct": 2.0, "expiry_years": 2.0},
            model={"alpha_pct": 1.0, "beta_pct": 0.0, "rho_pct": 0.0,
                   "nu_pct": 0.0, "shift_pct": 0.0},
            out=str(out),
        )
        assert main(["density", "--config", cfg]) == 0
        rows = out.read_text().splitlines()[1:]
        strikes = np.array([float(r.split(",")[0]) for r in rows])
        dens = np.array([float(r.split(",")[1]) for r in rows])
        mid = int(np.argmin(np.abs(strikes - 0.02)))
        width = min(mid, dens.size - 1 - mid)
        left = dens[mid - width:mid][::-1]
        right = dens[mid + 1:mid + 1 + width]
        assert np.max(np.abs(left - right)) < 1e-10 * dens[mid]


class TestCalibrate:
    def test_ed_report_bytes(self, tmp_path):
        # the report of the ED quotes, recorded before QuoteSet and the
        # calibration records became plain dataclasses
        out = tmp_path / "report.json"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes(tmp_path))
        assert main(["calibrate", "--config", cfg]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a78d468dcff782a276d73fd87e6c04b743503af9469e2d55844ee701a2e1d82e")

    # sha256 of the file and of stdout, from the same ED config, recorded
    # before the array passes of the pricing path were rewritten
    ED_OUTPUTS = {
        "price": ("63991140d8a06a4567e8c1f78e6d20c1e189ca17cdf2bc26cccf9e5750ac95c3",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "density": ("5b08f4ba33c2a4e10a7ec7ba9a3e0145dc2b7ec05217f6554c463d5f6baabfe1",
                    "495e7a14f7d6fdbff488a1cd5b0c0379feb551a3707477d77aebff7f73f65566"),
        "recalibrate": ("b225798acc19aa7002f60173960521109b56d2599bcfafa34f4e6807c03cb7fa",
                        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    }

    @pytest.mark.parametrize("command", sorted(ED_OUTPUTS))
    def test_ed_output_bytes(self, tmp_path, capsys, command):
        # the other ED commands beside the report: price, density with its
        # stdout, and recalibrate at target beta 60%
        out = tmp_path / "out"
        flags = ["--beta", "60"] if command == "recalibrate" else []
        assert main([command, "--config", ed_config(tmp_path, out), *flags]) == 0
        stdout = capsys.readouterr().out.encode()
        assert (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(stdout).hexdigest()) == self.ED_OUTPUTS[command]

    def test_round_trip_from_generated_quotes(self, tmp_path):
        params = ah.SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30,
                               shift=0.03)
        grid = ah.build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = ah.price_self_consistent(grid, params, 5.0)
        n = grid.forward_index
        quotes = []
        for off in (-2, -1, 1, 2):
            kind = "put" if off < 0 else "call"
            price = surface.puts[n + off] if off < 0 else surface.calls[n + off]
            quotes.append(RateQuote("T", "2021-01-04", kind,
                                    float(grid.strikes[n + off]), float(price)))
        quotes.append(RateQuote("T", "2021-01-04", "call",
                                float(grid.strikes[n]), float(surface.calls[n])))
        quotes.append(RateQuote("T", "2021-01-04", "put",
                                float(grid.strikes[n]), float(surface.puts[n])))
        qpath = tmp_path / "quotes.csv"
        write_quotes(qpath, [to_price_space(q) for q in quotes])

        out = tmp_path / "report.json"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
            market={"forward_pct": 2.0, "expiry_years": 5.0},
            model={"beta_pct": 40.0, "shift_pct": 3.0},
            quotes=str(qpath),
            out=str(out),
        )
        assert main(["calibrate", "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["alpha"] == pytest.approx(0.02, rel=1e-8, abs=0.0)
        assert doc["params"]["nu"] == pytest.approx(0.30, abs=1e-8)
        assert doc["params"]["rho"] == pytest.approx(-0.25, abs=1e-8)
        assert doc["vol_curve"], "report must carry the implied-vol curve"
        assert doc["schema_version"] == 4
        assert sorted(doc["diagnostics"]) == sorted([
            "z_minus", "z_plus", "y_minus", "y_plus", "kappa_minus",
            "kappa_plus", "sigma_atm"])

    def test_butterfly_violation_exit_3(self, tmp_path, capsys):
        # concave call wing: negative implied density at F+h
        rows = [
            RateQuote("T", "2021-01-04", "put", 0.0175, 0.004),
            RateQuote("T", "2021-01-04", "put", 0.01875, 0.005),
            RateQuote("T", "2021-01-04", "call", 0.02, 0.006),
            RateQuote("T", "2021-01-04", "put", 0.02, 0.006),
            RateQuote("T", "2021-01-04", "call", 0.02125, 0.0059),
            RateQuote("T", "2021-01-04", "call", 0.0225, 0.0010),
        ]
        qpath = tmp_path / "quotes.csv"
        write_quotes(qpath, [to_price_space(q) for q in rows])
        out = tmp_path / "report.json"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
            market={"forward_pct": 2.0, "expiry_years": 5.0},
            model={"beta_pct": 40.0, "shift_pct": 3.0},
            quotes=str(qpath),
            out=str(out),
        )
        assert main(["calibrate", "--config", cfg]) == 3
        assert "DegenerateButterfly" in capsys.readouterr().err

    def test_missing_quotes_path_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
            market={"forward_pct": 2.0, "expiry_years": 5.0},
            model={"beta_pct": 40.0, "shift_pct": 3.0},
            out=str(tmp_path / "report.json"),
        )
        assert main(["calibrate", "--config", cfg]) == 2


def ed_quotes(tmp_path, drop=()):
    """Quote CSV of the five near-ATM prices of the solved ED surface (both
    kinds at the forward), leaving out the node offsets from the forward
    listed in `drop`."""
    surface = ah.price_self_consistent(
        ah.build_uniform_grid(*ED_GRID, ED_FORWARD), ah.SabrParams(**ED_PARAMS),
        ED_EXPIRY,
    )
    n = surface.grid.forward_index
    quotes = []
    for off, kind in ((-2, "put"), (-1, "put"), (0, "call"), (0, "put"),
                      (1, "call"), (2, "call")):
        k = float(surface.grid.strikes[n + off])
        price = surface.puts[n + off] if kind == "put" else surface.calls[n + off]
        if off not in drop:
            quotes.append(RateQuote("EDH3", "2021-01-04", kind, k, float(price)))
    path = tmp_path / "quotes.csv"
    write_quotes(path, [to_price_space(q) for q in quotes])
    return str(path)


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def ed_quotes_with(tmp_path, row, first):
    """The ED quote CSV with one more price-space row, listed before the
    EDH3 rows or after them."""
    path = pathlib.Path(ed_quotes(tmp_path))
    header, *rows = path.read_text().splitlines()
    rows = [row, *rows] if first else [*rows, row]
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


class TestAmbiguousQuotes:
    """One calibration takes one contract on one quote date, and one row of
    a kind per target strike.  Without these checks, an EDM3 call (price
    space) at the ATM strike with a premium 1% higher, listed before the
    EDH3 rows, moved nu from 1.0862 to 0.9702 with exit 0; listed after
    them it changed nothing.  A row on another quote date did the same."""

    ATM_LAST = 0.136264698220935  # the EDH3 call at 99.75 in ed_quotes

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("contract,date", [("EDM3", "2021-01-04"),
                                               ("EDH3", "2021-01-05")])
    def test_second_contract_or_date_exit_2(self, tmp_path, capsys, contract,
                                            date, first):
        row = f"{contract},{date},C,99.75,{self.ATM_LAST * 1.01!r}"
        out = tmp_path / "report.json"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes_with(tmp_path, row, first))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "2 (contract, quote_date) pairs", "EDH3")
        assert not out.exists()

    @pytest.mark.parametrize("first", [True, False])
    def test_two_rows_of_a_kind_at_a_strike_exit_2(self, tmp_path, capsys, first):
        # a call on the price at 99.75 is a put on the rate at 0.25%
        row = f"EDH3,2021-01-04,C,99.75,{self.ATM_LAST * 1.01!r}"
        out = tmp_path / "report.json"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes_with(tmp_path, row, first))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "2 put quotes match the strike 0.250000%")
        assert not out.exists()

    def test_rows_off_the_targets_change_nothing(self, tmp_path):
        # rows at other strikes are not read: the report keeps its bytes
        row = f"EDH3,2021-01-04,C,99.0,{self.ATM_LAST!r}"
        out = tmp_path / "report.json"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes_with(tmp_path, row, True))
        assert main(["calibrate", "--config", cfg]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a78d468dcff782a276d73fd87e6c04b743503af9469e2d55844ee701a2e1d82e")


class TestInputFiles:
    """Unusable files and bad quote data are input errors: exit 2 and one
    line on stderr, never a traceback."""

    def test_ed_quotes_calibrate(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes(tmp_path))
        assert main(["calibrate", "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["nu"] == pytest.approx(ED_PARAMS["nu"], abs=1e-8)

    def test_missing_quotes_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such_quotes.csv")
        cfg = ed_config(tmp_path, tmp_path / "report.json", quotes=missing)
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "no_such_quotes.csv")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["price", "density", "calibrate",
                                         "recalibrate"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "no_such_dir" / "out.txt"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes(tmp_path))
        assert main([command, "--config", cfg]) == 2
        assert_one_line_error(capsys, "no_such_dir")

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "contract,quote_date,kind,strike_price,last\n"
            "EDH3,2021-01-04,C,99.75,not-a-number\n"
        )
        cfg = ed_config(tmp_path, tmp_path / "report.json", quotes=str(quotes))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "line 2")

    def test_header_only_quotes_exit_2(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("contract,quote_date,kind,strike_price,last\n")
        cfg = ed_config(tmp_path, tmp_path / "report.json", quotes=str(quotes))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "no quote found")

    def test_oversized_field_exit_2(self, tmp_path, capsys):
        # past the csv module's field size limit
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("contract,quote_date,kind,strike_price,last\n"
                          + "x" * 200_000 + "\n")
        cfg = ed_config(tmp_path, tmp_path / "report.json", quotes=str(quotes))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "line 2", "field larger than field limit")

    def test_float_underflow_exit_3(self, tmp_path, capsys):
        # an expiry of one subnormal step sends the ATM vol and alpha to
        # infinity, and so both neighbours' y to zero
        cfg = ed_config(tmp_path, tmp_path / "report.json",
                        quotes=ed_quotes(tmp_path),
                        market={"forward_pct": pct(ED_FORWARD),
                                "expiry_years": 5e-324})
        assert main(["calibrate", "--config", cfg]) == 3
        assert_one_line_error(capsys, "NumericalError: y at the neighbours "
                              "is 0.0 and -0.0")

    def test_expiry_1e_300_calibrates(self, tmp_path):
        cfg = ed_config(tmp_path, tmp_path / "report.json",
                        quotes=ed_quotes(tmp_path),
                        market={"forward_pct": pct(ED_FORWARD),
                                "expiry_years": 1e-300})
        assert main(["calibrate", "--config", cfg]) == 0

    @pytest.mark.parametrize("expiry", [1e-308, 1e-310, 1e-315, 1e-320, 5e-324])
    def test_tiny_expiry_calibrate_exit_3(self, tmp_path, capsys, expiry):
        # alpha, y or nu^2 leave the double range: one line naming a
        # numerical error of the package, never an input error or a bare
        # ArithmeticError
        out = tmp_path / "report.json"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes(tmp_path),
                        market={"forward_pct": pct(ED_FORWARD),
                                "expiry_years": expiry})
        assert main(["calibrate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        name = err.split(": ")[1]
        assert issubclass(getattr(ah.errors, name, type(None)),
                          ah.errors.NumericalError), err
        assert not out.exists()

    def test_zero_premium_exit_2(self, tmp_path, capsys):
        # a zero premium is bad quote data, not a breakdown of the model
        quotes = pathlib.Path(ed_quotes(tmp_path))
        lines = quotes.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0"
        quotes.write_text("\n".join(lines) + "\n")
        cfg = ed_config(tmp_path, tmp_path / "report.json", quotes=str(quotes))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "c_plus2 must be positive")

    def test_subnormal_rate_premium_exit_2(self, tmp_path, capsys):
        # a premium whose last / 100 would be subnormal is a malformed row
        quotes = pathlib.Path(ed_quotes(tmp_path))
        lines = quotes.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1e-310"
        quotes.write_text("\n".join(lines) + "\n")
        cfg = ed_config(tmp_path, tmp_path / "report.json", quotes=str(quotes))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, f"line {len(lines)}: premium must be 0 "
                                      "or at least 2.2250738585072014e-306")

    def test_missing_required_strike_exit_2(self, tmp_path, capsys):
        cfg = ed_config(tmp_path, tmp_path / "report.json",
                        quotes=ed_quotes(tmp_path, drop=(2,)))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "no quote found at required strike")


def test_import_loads_no_scipy():
    """The package and its CLI import numpy only; scipy is a test oracle."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ah.__file__)))
    code = ("import sys, ahsabr, ahsabr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_quote_set_builders_load_no_calibration():
    """Building a five-quote set, from a price curve or from quotes, loads
    neither the calibration nor the Hagan reference."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ah.__file__)))
    code = (
        "import sys, ahsabr\n"
        "from ahsabr import market_io\n"
        "q = ahsabr.quote_set_from_curve(lambda k: 0.001, 0.02, 1.0, 0.001)\n"
        "quotes = [market_io.RateQuote('ED', 'd', kind, 0.02 + 0.001 * j, 0.001)\n"
        "          for j in range(-2, 3) for kind in ('put', 'call')]\n"
        "assert market_io.assemble_quote_set(quotes, 0.02, 1.0, 0.001).atm == 0.001\n"
        "assert q.atm == 0.001\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('ahsabr.analytic_calib', 'ahsabr.hagan_ref')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# the body of the console script that pip generates for ahsabr.cli:main
CONSOLE_SCRIPT = "import sys; from ahsabr.cli import main; sys.exit(main())"


def test_help_survives_docstring_stripping():
    """python -OO strips docstrings; `ahsabr --help` still lists every
    subcommand with its help line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ah.__file__)))
    result = subprocess.run(
        [sys.executable, "-OO", "-c", CONSOLE_SCRIPT, "--help"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    listing = " ".join(result.stdout.split())
    for name, (_, text) in cli._COMMANDS.items():
        assert f"{name} {text}" in listing, name


@pytest.mark.parametrize("command", ["price", "density", "calibrate"])
def test_fresh_process_matches_in_process(tmp_path, capsys, command):
    """A fresh process imports each module when a command first needs it,
    which no in-process test sees once the suite has imported them all: its
    files and stdout are the in-process run's, byte for byte, and price and
    density load neither the calibration nor the Hagan reference."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ah.__file__)))
    fresh, here = tmp_path / "fresh.out", tmp_path / "here.out"
    cfg = ed_config(tmp_path, fresh, quotes=ed_quotes(tmp_path))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(here)]) == 0
    stdout = capsys.readouterr().out
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CONSOLE_SCRIPT, command,
         "--config", cfg], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True)
    assert result.stdout == stdout
    assert fresh.read_bytes() == here.read_bytes()
    # -X importtime names each module the process imports on stderr
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in result.stderr.splitlines()}
    assert {"ahsabr.cli", "ahsabr.ah_engine", "ahsabr.market_io"} <= loaded
    lazy = {"ahsabr.analytic_calib", "ahsabr.hagan_ref"}
    if command == "calibrate":
        assert "ahsabr.analytic_calib" in loaded
    else:
        assert not lazy & loaded


def recal_config(tmp_path, out, target_beta_pct, target_shift_pct,
                 source="hagan"):
    return write_config(
        tmp_path,
        grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
        market={"forward_pct": pct(HAGAN_FORWARD),
                "expiry_years": HAGAN_EXPIRY},
        model={f"{k}_pct": pct(v) for k, v in HAGAN_SOURCE.items()},
        target={"beta_pct": target_beta_pct, "shift_pct": target_shift_pct},
        source=source,
        out=str(out),
    )


class TestRecalibrate:
    @pytest.mark.parametrize(
        "tbeta,tshift,ealpha,erho,enu",
        [HAGAN_CASES[0], HAGAN_CASES[1], HAGAN_CASES[3]],
    )
    def test_published_cases(self, tmp_path, tbeta, tshift, ealpha, erho, enu):
        out = tmp_path / "recal.json"
        cfg = recal_config(tmp_path, out, pct(tbeta), pct(tshift))
        # the sampling step matches the published quoting grid
        lo, hi = -0.02, 0.08
        count = int(round((hi - lo) / HAGAN_STEP)) + 1
        assert main([
            "recalibrate", "--config", cfg, "--grid-count", str(count),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["target"]["alpha"] == pytest.approx(ealpha, abs=0.001)
        assert doc["target"]["rho"] == pytest.approx(erho, abs=0.02)
        assert doc["target"]["nu"] == pytest.approx(enu, abs=0.02)
        assert doc["source"]["alpha"] == HAGAN_SOURCE["alpha"]
        assert doc["smile"], "report must carry the smile comparison"
        row = doc["smile"][0]
        assert set(row) == {"strike", "source_vol_bp", "target_vol_bp"}

    @pytest.mark.parametrize("source", ["hagan", "onestep"])
    def test_document_layout(self, tmp_path, source):
        # schema 2, its sections in this order, the source's kind first
        out = tmp_path / "recal.json"
        cfg = recal_config(tmp_path, out, pct(0.60), pct(0.03), source=source)
        assert main(["recalibrate", "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["schema_version", "source", "target", "smile"]
        assert doc["schema_version"] == 2
        model = ["alpha", "beta", "rho", "nu", "shift"]
        assert list(doc["source"]) == ["kind", *model]
        assert doc["source"]["kind"] == source
        assert list(doc["target"]) == model
        assert list(doc["smile"][0]) == ["strike", "source_vol_bp", "target_vol_bp"]

    def test_identity_on_one_step_source(self, tmp_path):
        out = tmp_path / "recal.json"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
            market={"forward_pct": 2.0, "expiry_years": 5.0},
            model={"alpha_pct": 2.0, "beta_pct": 40.0, "rho_pct": -25.0,
                   "nu_pct": 30.0, "shift_pct": 3.0},
            source="onestep",
            out=str(out),
        )
        assert main(["recalibrate", "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        for key in ("alpha", "beta", "rho", "nu", "shift"):
            assert doc["target"][key] == pytest.approx(
                doc["source"][key], abs=1e-8
            )

    def test_identity_on_ed_one_step_source(self, tmp_path):
        # the source's own five quotes, with the grid's actual gaps, invert
        # its rows to a few ulps
        out = tmp_path / "recal.json"
        cfg = ed_config(tmp_path, out, source="onestep")
        assert main(["recalibrate", "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        source, target = doc["source"], doc["target"]
        assert target["alpha"] == pytest.approx(source["alpha"], rel=2e-15,
                                                abs=0.0)
        assert target["nu"] == pytest.approx(source["nu"], rel=0.0, abs=2e-15)
        assert target["rho"] == pytest.approx(source["rho"], rel=0.0, abs=2e-15)

    @pytest.mark.parametrize("flags,where", [
        (["--grid-count", "9"], "forward 0.3% is node 2 of 0..8"),
        (["--grid-count", "11"], "forward 0.3% is node 2 of 0..10"),
        (["--grid-count", "13"], "forward 0.3% is node 3 of 0..12"),
        (["--grid-count", "9", "--forward", "6.0"], "forward 6% is node 6 of 0..8"),
    ], ids=["lower-9", "lower-11", "lower-13", "upper-9"])
    def test_zero_one_step_quote_exit_2(self, tmp_path, capsys, flags, where):
        # on these grids the forward sits two or three nodes from an end, so
        # a quote of the source would be the absorbing boundary's zero tv: the
        # grid is the input at fault, and the error names it and the node
        out = tmp_path / "recal.json"
        cfg = recal_config(tmp_path, out, pct(0.60), pct(0.03), source="onestep")
        assert main(["recalibrate", "--config", cfg, *flags]) == 2
        assert_one_line_error(capsys, "source 'onestep'", where, "[-2%, 8%]")
        assert not out.exists()

    def test_forward_four_nodes_from_each_end_accepted(self, tmp_path):
        # the forward at node 4 of 0..16, and of 0..8 (forward 3.0%), which
        # is 4 nodes from both ends: the five quotes miss the boundary nodes
        for flags in (["--grid-count", "17"],
                      ["--grid-count", "9", "--forward", "3.0"]):
            out = tmp_path / "recal.json"
            cfg = recal_config(tmp_path, out, pct(0.60), pct(0.03), source="onestep")
            assert main(["recalibrate", "--config", cfg, *flags]) == 0
            assert out.exists()
            out.unlink()

    def test_source_and_target_vols_share_units(self, tmp_path):
        # both smiles are Bachelier normal vols in bp: at the forward the
        # source and the recalibrated target sit close together
        out = tmp_path / "recal.json"
        cfg = recal_config(tmp_path, out, pct(0.60), pct(0.03))
        assert main(["recalibrate", "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        (row,) = [r for r in doc["smile"] if r["strike"] == HAGAN_FORWARD]
        assert row["source_vol_bp"] == pytest.approx(
            row["target_vol_bp"], rel=0.1, abs=0.0)

    def test_nan_source_vol_rejected_at_write(self, tmp_path, capsys,
                                              monkeypatch):
        # a NaN source vol drops its row; any other non-finite one must
        # stop the write
        monkeypatch.setattr(cli, "otm_vol_curve",
                            lambda strikes, *_: np.full(len(strikes), math.inf))
        out = tmp_path / "recal.json"
        cfg = recal_config(tmp_path, out, pct(0.40), pct(0.03))
        assert main(["recalibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "report.smile[0].source_vol_bp")
        assert not out.exists()

    def test_zero_shifted_forward_exit_2(self, tmp_path, capsys):
        # forward 0 and target shift 0: (F + b)^beta has no positive value
        out = tmp_path / "recal.json"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
            market={"forward_pct": 0.0, "expiry_years": HAGAN_EXPIRY},
            model={f"{k}_pct": pct(v) for k, v in HAGAN_SOURCE.items()},
            target={"beta_pct": 40.0, "shift_pct": 0.0},
            out=str(out),
        )
        assert main(["recalibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "forward + shift 0.0")
        assert not out.exists()

    @pytest.mark.parametrize("big", ["alpha_pct", "nu_pct"])
    def test_overflowing_source_square_exit_3(self, tmp_path, capsys, big):
        # alpha or nu past about 1.3e154 overflows its square in the Hagan
        # source: a numerical error, one stderr line, no file
        out = tmp_path / "recal.json"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
            market={"forward_pct": pct(HAGAN_FORWARD),
                    "expiry_years": HAGAN_EXPIRY},
            model={**{f"{k}_pct": pct(v) for k, v in HAGAN_SOURCE.items()},
                   big: 1e200},
            out=str(out),
        )
        assert main(["recalibrate", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: OverflowError: (34, 'Numerical result out of range')\n")
        assert not out.exists()

    def test_smile_leaves_out_strikes_below_the_source_shift(self, tmp_path):
        # source shift 1%, target shift 6%: the target prices the ED grid from
        # -5%, the Hagan source only the strikes above -1%
        out = tmp_path / "recal.json"
        cfg = ed_config(tmp_path, out, model={
            **{f"{k}_pct": pct(v) for k, v in ED_PARAMS.items()}, "shift_pct": 1.0})
        assert main(["recalibrate", "--config", cfg, "--shift", "6"]) == 0
        strikes = [row["strike"] for row in json.loads(out.read_text())["smile"]]
        assert len(strikes) == 123
        assert min(strikes) + 0.01 > 0.0

    def test_target_below_its_shift_exit_3(self, tmp_path, capsys):
        # source shift 6%, target shift 1%: the target surface itself cannot
        # be built on the ED grid from -5%
        out = tmp_path / "recal.json"
        cfg = ed_config(tmp_path, out)
        assert main(["recalibrate", "--config", cfg, "--shift", "1"]) == 3
        assert_one_line_error(capsys, "NonpositiveShiftedStrike", "k + shift > 0")
        assert not out.exists()

    def test_beta_flag_names_the_target(self, tmp_path):
        out = tmp_path / "recal.json"
        cfg = recal_config(tmp_path, out, pct(0.40), pct(0.03))
        assert main([
            "recalibrate", "--config", cfg, "--beta", "60",
            "--grid-count", "81",
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["source"]["beta"] == HAGAN_SOURCE["beta"]
        assert doc["target"]["beta"] == 0.60


class TestConfigHandling:
    def test_every_subcommand_takes_the_shared_flags(self):
        # --config and every _FLAGS entry, in order, with its type and help,
        # after each subcommand's own -h
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        want = [(["-h", "--help"], None, "show this help message and exit"),
                (["--config"], None, "JSON config file; flags override it"),
                *(([flag], type_, help_)
                  for flag, (type_, help_, _, _) in cli._FLAGS.items())]
        assert list(sub.choices) == list(cli._COMMANDS)
        for name, command in sub.choices.items():
            got = [(a.option_strings, a.type, a.help) for a in command._actions]
            assert got == want, name

    def test_every_subcommand_has_help_text(self):
        # `ahsabr --help` lists each subcommand with the help line that
        # _COMMANDS holds beside its function
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        helps = {action.dest: action.help for action in sub._choices_actions}
        assert list(helps) == list(cli._COMMANDS)
        for name, text in helps.items():
            assert text, name
            assert text == cli._COMMANDS[name][1], name
        listing = parser.format_help()
        assert all(text in listing for text in helps.values())

    def test_invalid_json_exit_2(self, tmp_path):
        # not JSON, or JSON that is not an object
        path = tmp_path / "bad.json"
        for text in ("{not json", "[]"):
            path.write_text(text)
            assert main(["price", "--config", str(path)]) == 2, text

    def test_invalid_kappa_sigma_exit_2(self, tmp_path, capsys):
        # kappa has one convention; a config that still names one, even
        # the one in use, must not run on silently
        for value in ("total", "annualized", "weekly"):
            out = tmp_path / "surface.csv"
            cfg = ed_config(tmp_path, out, kappa_sigma=value)
            assert main(["price", "--config", cfg]) == 2, value
            assert_one_line_error(capsys, "kappa_sigma")
            assert not out.exists()

    def test_missing_out_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -5.0, "hi_pct": 25.0, "count": 241},
            market={"forward_pct": 0.25, "expiry_years": 2.0},
            model={f"{k}_pct": pct(v) for k, v in ED_PARAMS.items()},
        )
        assert main(["price", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["price", "density", "calibrate",
                                         "recalibrate"])
    def test_missing_out_read_before_the_solve(self, tmp_path, capsys,
                                               command):
        # an expiry whose solve fails numerically: the missing path is
        # reported first, as an input error
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": pct(ED_GRID[0]), "hi_pct": pct(ED_GRID[1]),
                  "count": ED_GRID[2]},
            market={"forward_pct": pct(ED_FORWARD), "expiry_years": 1e-300},
            model={f"{k}_pct": pct(v) for k, v in ED_PARAMS.items()},
            quotes=ed_quotes(tmp_path),
        )
        assert main([command, "--config", cfg]) == 2
        assert_one_line_error(capsys, "missing output path")

    @pytest.mark.parametrize("section,value,command", [
        ("grid", 5, "price"),
        ("grid", [1, 2], "calibrate"),
        ("target", 3, "recalibrate"),
        ("model", "x", "density"),
    ])
    def test_non_object_section_exit_2(self, tmp_path, capsys, section, value,
                                       command):
        out = tmp_path / "out"
        cfg = ed_config(tmp_path, out, quotes=ed_quotes(tmp_path),
                        **{section: value})
        assert main([command, "--config", cfg]) == 2
        assert_one_line_error(capsys, f"config section {section} ")
        assert not out.exists()

    @pytest.mark.parametrize("count", [100002, 10**9, 10**400])
    def test_grid_count_above_bound_exit_2(self, tmp_path, capsys, count):
        # rejected before a grid of that size is allocated or a float formed
        out = tmp_path / "surface.csv"
        cfg = ed_config(tmp_path, out, grid={
            "lo_pct": pct(ED_GRID[0]), "hi_pct": pct(ED_GRID[1]), "count": count})
        assert main(["price", "--config", cfg]) == 2
        assert_one_line_error(capsys, "grid.count must be at most 100001")
        assert not out.exists()

    @pytest.mark.parametrize("count", [2, 4])
    def test_grid_count_below_five_exit_2(self, tmp_path, capsys, count):
        # no grid of fewer than five nodes holds the forward two nodes in
        out = tmp_path / "surface.csv"
        cfg = ed_config(tmp_path, out, grid={
            "lo_pct": pct(ED_GRID[0]), "hi_pct": pct(ED_GRID[1]), "count": count})
        assert main(["price", "--config", cfg]) == 2
        assert_one_line_error(capsys, "grid.count must be at least 5")
        assert not out.exists()

    def test_forward_within_two_nodes_of_edge_exit_2(self, tmp_path, capsys):
        # lo 0.2% leaves the 0.25% forward within half a step of the lowest
        # node: an input error, as a forward outside the grid is
        out = tmp_path / "surface.csv"
        cfg = ed_config(tmp_path, out, grid={
            "lo_pct": 0.2, "hi_pct": pct(ED_GRID[1]), "count": ED_GRID[2]})
        assert main(["price", "--config", cfg]) == 2
        assert_one_line_error(capsys, "two nodes on one side")
        assert not out.exists()

    def test_non_integer_grid_count_exit_2(self, tmp_path):
        out = tmp_path / "surface.csv"
        cfg = write_config(
            tmp_path,
            grid={"lo_pct": -5.0, "hi_pct": 25.0, "count": 241.5},
            market={"forward_pct": 0.25, "expiry_years": 2.0},
            model={f"{k}_pct": pct(v) for k, v in ED_PARAMS.items()},
            out=str(out),
        )
        assert main(["price", "--config", cfg]) == 2
