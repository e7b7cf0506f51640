"""Property tests of the CLI boundary: whatever the config, the flags or the
quote file hold, main() ends in exit 0, 2 (input error) or 3 (numerical
error), with at most one `error:` line on stderr and never a traceback."""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ahsabr.cli import main

COMMANDS = ("price", "density", "calibrate", "recalibrate")

# a number from the documented range of each key, or anything else
PLAUSIBLE = {
    "lo_pct": st.floats(-8.0, 2.0),
    "hi_pct": st.floats(0.0, 30.0),
    "count": st.integers(-2, 41),  # capped small: every example solves
    "forward_pct": st.floats(-1.0, 8.0),
    "expiry_years": st.floats(0.0, 30.0),
    "alpha_pct": st.floats(0.0, 30.0),
    "beta_pct": st.floats(0.0, 100.0),
    "rho_pct": st.floats(-100.0, 100.0),
    "nu_pct": st.floats(0.0, 200.0),
    "shift_pct": st.floats(0.0, 10.0),
}
WRONG = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -6.0, 1e-300, 1e300, 10**400]),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
SECTION_KEYS = {
    "grid": ("lo_pct", "hi_pct", "count"),
    "market": ("forward_pct", "expiry_years"),
    "model": ("alpha_pct", "beta_pct", "rho_pct", "nu_pct", "shift_pct"),
    "target": ("beta_pct", "shift_pct"),
}
# the published recalibration source on a 41-node grid: every command
# succeeds on it, with either recalibration source
BASE = {
    "grid": {"lo_pct": -2.0, "hi_pct": 8.0, "count": 41},
    "market": {"forward_pct": 0.3, "expiry_years": 10.0},
    "model": {"alpha_pct": 2.17, "beta_pct": 40.0, "rho_pct": -23.78,
              "nu_pct": 26.12, "shift_pct": 3.0},
    "target": {"beta_pct": 60.0, "shift_pct": 3.0},
}


@st.composite
def configs(draw):
    """The BASE config with up to three edits: a section replaced by a value
    that is not an object or dropped, a key dropped or set to a value from
    its documented range or to anything else; then a kappa convention and a
    recalibration source, each valid or not."""
    doc = {name: dict(section) for name, section in BASE.items()}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(SECTION_KEYS)))
        edit = draw(st.sampled_from(["plausible"] * 6 + [
            "wrong", "drop key", "drop section", "not an object"]))
        if edit == "not an object":
            doc[name] = draw(WRONG.filter(lambda v: not isinstance(v, dict)))
        elif edit == "drop section":
            doc.pop(name, None)
        elif isinstance(doc.get(name), dict):
            key = draw(st.sampled_from(SECTION_KEYS[name]))
            if edit == "drop key":
                doc[name].pop(key, None)
            else:
                doc[name][key] = draw(PLAUSIBLE[key] if edit == "plausible" else WRONG)
    for key, values in (
        ("kappa_sigma", ["total", "annualized", "weekly", 3]),
        ("source", ["hagan", "onestep", "other", None]),
    ):
        value = draw(st.sampled_from(["unset"] * 4 + values))
        if value != "unset":
            doc[key] = value
    return doc


FLAGS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["--beta", "--shift", "--forward"]),
                  st.sampled_from(["0", "40", "60", "-3", "-6", "150", "1e-300",
                                   "nan", "inf"])),
        st.tuples(st.just("--grid-count"),
                  st.sampled_from(["-1", "0", "1", "4", "9", "41"])),
    ),
    max_size=2,
)

QUOTE_HEADER = "contract,quote_date,kind,strike_price,last"
# the five quotes of the solved BASE surface (F = 0.3%, h = 0.25%) in price
# space, where a call on the price is a put on the rate
BASE_ROWS = [
    ("C", "100.2", "0.465227"), ("C", "99.95", "0.577632"),
    ("P", "99.7", "0.703923"), ("C", "99.7", "0.703923"),
    ("P", "99.45", "0.594525"), ("P", "99.2", "0.499276"),
]
CELL = st.one_of(
    st.sampled_from(["100.2", "99.95", "99.7", "99.45", "99.2", "0.01", "-1",
                     "nan", "inf", "", "abc", "1e308", "0",
                     "x" * 200_000]),  # past the csv module's field size limit
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.-eE", max_size=6),
    st.text(max_size=6),
)
ROW = st.tuples(st.sampled_from(["C", "P", "X", ""]), CELL, CELL)


def quote_text(rows, header=QUOTE_HEADER):
    lines = [",".join(["EDH3", "2021-01-04", *row]) for row in rows]
    return "\n".join([header] + lines) + "\n"


@st.composite
def quote_files(draw):
    """The BASE quotes with up to three edits: a row dropped, replaced or
    added, or cut short or extended by a field; at times a bad header."""
    rows = [list(row) for row in BASE_ROWS]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows)))
        edit = draw(st.sampled_from(["drop", "replace", "add", "short", "long"]))
        if edit == "add" or i == len(rows):
            rows.insert(i, list(draw(ROW)))
        elif edit == "drop":
            del rows[i]
        elif edit == "replace":
            rows[i] = list(draw(ROW))
        elif edit == "short":
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + [draw(CELL)]
    header = draw(st.sampled_from([QUOTE_HEADER] * 8 + ["a,b", ""]))
    return quote_text(rows, header)


def run(command, doc, flags=(), quotes=None):
    """main() on `doc` written as the config, with stderr captured."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        doc = dict(doc, out=str(tmp / "out"))
        if quotes is not None:
            (tmp / "quotes.csv").write_text(quotes, encoding="utf-8")
            doc["quotes"] = str(tmp / "quotes.csv")
        (tmp / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--config", str(tmp / "config.json")]
        for flag, value in flags:
            argv += [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("command", COMMANDS)
@FUZZ
@given(doc=configs(), flags=FLAGS)
def test_config_fuzz_ends_in_documented_exit(command, doc, flags):
    assert_clean_exit(*run(command, doc, flags, quotes=quote_text(BASE_ROWS)))


@FUZZ
@given(quotes=quote_files())
def test_quote_file_fuzz_ends_in_documented_exit(quotes):
    assert_clean_exit(*run("calibrate", BASE, quotes=quotes))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("source", ["hagan", "onestep"])
def test_base_config_succeeds(command, source):
    """The fuzz starts from inputs on which every command works, so its
    edits reach every stage of each command."""
    doc = dict(BASE, source=source)
    assert run(command, doc, quotes=quote_text(BASE_ROWS)) == (0, "")
