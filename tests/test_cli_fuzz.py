"""Property test: every argv of the extension commands ends in exit 0, 2 or 3.

The draws stay small so that each run is quick: fields of at most 9
elements, short rational functions with exponents of at most 20, and junk
text without digits, so junk never parses as a large integer.  The runs
are derandomized, so a failure replays.
"""

from __future__ import annotations

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aspw import cli  # noqa: E402

_junk = st.text(alphabet="wxyTX+-*/^() [],;", max_size=6)
# (field text, p, s) for every field of at most 9 elements
_FIELDS = [("p=2,s=1", 2, 1), ("p=2,s=2", 2, 2), ("p=2,s=3", 2, 3), ("p=3,s=1", 3, 1),
           ("p=3,s=2", 3, 2), ("p=3,s=2,mod=x^2+x+2", 3, 2), ("p=5,s=1", 5, 1),
           ("p=7,s=1", 7, 1)]
_atom = st.sampled_from(["T", "w", "1", "2", "(T+1)", "(T+w)", "(T^2+T+1)"])
_power = st.tuples(_atom, st.integers(0, 20)).map(lambda t: f"{t[0]}^{t[1]}")
_factor = st.one_of(_atom, _power)
_term = st.one_of(_factor, st.tuples(_factor, _factor).map("{0[0]}/{0[1]}".format),
                  st.tuples(_factor, _factor).map("{0[0]}*{0[1]}".format))
_ratfunc = st.lists(st.tuples(st.sampled_from("+-"), _term), min_size=1, max_size=3).map(
    lambda terms: "".join(op + t for op, t in terms).lstrip("+"))
_place = st.sampled_from(["inf", "T", "T+1", "T^2+T+1", "T^2+1", "T^3+T+1", "T^2"])


def _mostly(draw, valid):
    """A valid draw fifteen times in sixteen, junk text otherwise."""
    return draw(_junk) if draw(st.integers(0, 15)) == 0 else draw(valid)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["reduce", "ramify", "subext", "split"]))
    field, p, s = draw(st.sampled_from(_FIELDS))
    # X^(p^n) - X has its roots in the field exactly when n divides s
    n = draw(st.integers(1, s))
    listed = "[" + ",".join(["-1"] + ["0"] * (n - 1) + ["1"]) + "]"
    additive = st.sampled_from([f"X^{p ** n}-X", f"X^{p ** n}+X", listed, "X^6-X"])
    # "--u=-T" keeps a value with a leading minus sign from reading as an option
    argv = [command, "--field=" + _mostly(draw, st.just(field)),
            "--f=" + _mostly(draw, additive), "--u=" + _mostly(draw, _ratfunc)]
    if command == "split":
        argv.append("--place=" + _mostly(draw, _place))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_exits_zero_two_or_three_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv with exit 2
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
