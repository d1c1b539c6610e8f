"""Property test: every argv of the CLI's commands ends in exit 0, 2 or 3.

The draws cover the extension commands, relate, combine, the Witt
operations and the lemma62 and eqstar verifiers.  They stay small so that
each run is quick: fields of at most 9 elements, short rational functions
with exponents of at most 20, and junk text without digits, so junk never
parses as a large integer.  The runs are derandomized, so a failure
replays.
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
_element = st.sampled_from(["0", "1", "2", "w", "w+1", "2*w"])


def _mostly(draw, valid):
    """A valid draw fifteen times in sixteen, junk text otherwise."""
    return draw(_junk) if draw(st.integers(0, 15)) == 0 else draw(valid)


def _additive(draw, p: int, s: int):
    """Additive polynomials of one rank n over F_(p^s), valid and not."""
    # X^(p^n) - X has its roots in the field exactly when n divides s
    n = draw(st.integers(1, s))
    listed = "[" + ",".join(["-1"] + ["0"] * (n - 1) + ["1"]) + "]"
    return st.sampled_from([f"X^{p ** n}-X", f"X^{p ** n}+X", listed, "X^6-X"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["reduce", "ramify", "subext", "split"]))
    field, p, s = draw(st.sampled_from(_FIELDS))
    additive = _additive(draw, p, s)
    # "--u=-T" keeps a value with a leading minus sign from reading as an option
    argv = [command, "--field=" + _mostly(draw, st.just(field)),
            "--f=" + _mostly(draw, additive), "--u=" + _mostly(draw, _ratfunc)]
    if command == "split":
        argv.append("--place=" + _mostly(draw, _place))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _over(s: int, texts):
    """The texts, with the generator w read as 1 over a prime field."""
    return texts if s > 1 else texts.map(lambda text: text.replace("w", "1"))


def _vector(draw, s: int, m: int) -> str:
    """A Witt vector literal of length m, now and then one component off."""
    m = max(1, m + draw(st.sampled_from([0] * 14 + [-1, 1])))
    return "[" + ";".join(draw(_over(s, _ratfunc)) for _ in range(m)) + "]"


@st.composite
def _other_argv(draw):
    command = draw(st.sampled_from(["relate", "combine", "witt", "verify"]))
    field, p, s = draw(st.sampled_from(_FIELDS))
    ratfunc, element = _over(s, _ratfunc), _over(s, _element)
    if command == "relate":
        # sum a_i y^(p^i) + d moves by constants, other powers of y do not
        powers = st.sampled_from([f"y^{p ** i}" for i in range(s + 1)] + ["y^2", "y^4"])
        term = _over(s, st.tuples(st.sampled_from(["", "w*", "2*", "T*"]), powers).map("".join))
        z = "+".join(draw(st.lists(term, min_size=1, max_size=3)) + [draw(ratfunc)])
        argv = [command, "--field=" + _mostly(draw, st.just(field)),
                "--f=" + _mostly(draw, _additive(draw, p, s)),
                "--u=" + _mostly(draw, ratfunc), "--z=" + _mostly(draw, st.just(z)),
                "--fix=" + _mostly(draw, st.lists(element, max_size=2).map(",".join))]
    elif command == "combine":
        k = draw(st.integers(1, 3))
        argv = [command, "--field=" + _mostly(draw, st.just(field))]
        for _ in range(k):
            argv.append("--gamma=" + _mostly(draw, ratfunc))
        for _ in range(k + draw(st.sampled_from([0] * 14 + [-1, 1]))):
            argv.append("--mu=" + _mostly(draw, element))
    elif command == "witt":
        op = draw(st.sampled_from(["add", "mul", "wp", "reduce", "infty"]))
        # degrees in T grow like p^(m-1), so p^(m-1) <= 13 as in verify axioms
        m = draw(st.integers(1, 3 if p <= 3 else 2))
        # --p alone names the prime field
        base = ["--field=" + _mostly(draw, st.just(field))] if draw(st.booleans()) else []
        if not base or draw(st.integers(0, 15)) == 0:
            base.append("--p=" + _mostly(draw, st.just(str(p))))
        s = s if base[0].startswith("--field") else 1
        argv = [command, op] + base + ["--m=" + _mostly(draw, st.just(str(m)))]
        q = _mostly(draw, st.sampled_from([str(p), str(p ** s), "4", "0"]))
        if op == "reduce" or op in ("wp", "infty") and draw(st.booleans()):
            argv.append("--q=" + q)
        if op == "reduce" and draw(st.booleans()):
            argv.append("--descend")
        argv += [_mostly(draw, st.just(_vector(draw, s, m)))
                 for _ in range(2 if op in ("add", "mul") else 1)]
    else:
        argv = [command, draw(st.sampled_from(["lemma62", "eqstar"]))]
        if argv[1] == "lemma62":
            argv += ["--q=" + _mostly(draw, st.sampled_from(["2", "3", "4", "5", "6", "8", "9"])),
                     "--m=" + _mostly(draw, st.sampled_from(["0", "1", "2", "3"]))]
        else:
            argv += ["--field=" + _mostly(draw, st.just(field)),
                     "--f=" + _mostly(draw, _additive(draw, p, s))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _exits_zero_two_or_three(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv with exit 2
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_exits_zero_two_or_three_without_traceback(argv):
    _exits_zero_two_or_three(argv)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_other_argv())
def test_other_commands_exit_zero_two_or_three_without_traceback(argv):
    _exits_zero_two_or_three(argv)
