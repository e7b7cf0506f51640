"""CLI tests, run in-process through main(argv): exit codes, determinism,
the published fixtures, and the quote-file calibration workflow."""

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
        # the ATM fixed point collapses towards a zero vol, and the Hagan
        # source prices its ATM call at zero: numerical errors, not input
        out = tmp_path / "surface.csv"
        cfg = ed_config(tmp_path, out, market={
            "forward_pct": pct(ED_FORWARD), "expiry_years": 1e-300})
        assert main([command, "--config", cfg]) == 3
        if command == "recalibrate":
            assert_one_line_error(capsys, "PriceOutOfBounds", "at strike")
        else:
            assert_one_line_error(capsys, "ConvergenceError")
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
        assert doc["params"]["alpha"] == pytest.approx(0.02, rel=1e-8)
        assert doc["params"]["nu"] == pytest.approx(0.30, abs=1e-8)
        assert doc["params"]["rho"] == pytest.approx(-0.25, abs=1e-8)
        assert doc["vol_curve"], "report must carry the implied-vol curve"

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
        # an expiry of one subnormal step sends the ATM vol to infinity
        cfg = ed_config(tmp_path, tmp_path / "report.json",
                        quotes=ed_quotes(tmp_path),
                        market={"forward_pct": pct(ED_FORWARD),
                                "expiry_years": 5e-324})
        assert main(["calibrate", "--config", cfg]) == 3
        assert_one_line_error(capsys, "ZeroDivisionError")

    def test_zero_premium_exit_2(self, tmp_path, capsys):
        # a zero premium is bad quote data, not a breakdown of the model
        quotes = pathlib.Path(ed_quotes(tmp_path))
        lines = quotes.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0"
        quotes.write_text("\n".join(lines) + "\n")
        cfg = ed_config(tmp_path, tmp_path / "report.json", quotes=str(quotes))
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_line_error(capsys, "c_plus2 must be positive")

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


def recal_config(tmp_path, out, target_beta_pct, target_shift_pct):
    return write_config(
        tmp_path,
        grid={"lo_pct": -2.0, "hi_pct": 8.0, "count": 81},
        market={"forward_pct": pct(HAGAN_FORWARD),
                "expiry_years": HAGAN_EXPIRY},
        model={f"{k}_pct": pct(v) for k, v in HAGAN_SOURCE.items()},
        target={"beta_pct": target_beta_pct, "shift_pct": target_shift_pct},
        source="hagan",
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

    def test_nan_source_vol_rejected_at_write(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(cli, "hagan_implied_vol", lambda req: math.nan)
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
    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["price", "--config", str(path)]) == 2

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
