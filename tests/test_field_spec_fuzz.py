"""Property test: every --field text ends in a field or an AspwError.

The values are drawn so that no large field is ever built: p comes from
{2, 3, 5} and s from {1, 2, 3}, and the junk alphabets contain no digits,
so junk can never parse as a larger integer.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aspw.errors import AspwError  # noqa: E402
from aspw.gf import FieldCtx  # noqa: E402
from aspw.parsing import parse_field_spec  # noqa: E402

_junk = st.text(alphabet="abxTXy+-*/^() .=", max_size=6)
_values = {
    "p": st.one_of(st.sampled_from(["2", "3", "5"]), _junk),
    "s": st.one_of(st.sampled_from(["1", "2", "3"]), _junk),
    "gen": st.one_of(st.sampled_from(["w", "a", "ab", "T", "X", "y", "2", "w1"]), _junk),
    "mod": st.one_of(st.sampled_from(["x^2+1", "x^2+x+2", "x^3-x-2", "x^3+x+1",
                                      "x", "x^2", "1", "0"]), _junk),
    "junk": _junk,
}


def _chunks(key: str, min_size: int, max_size: int):
    return st.lists(_values[key].map(lambda val: f"{key}={val}"),
                    min_size=min_size, max_size=max_size)


# p and s once or twice, gen, mod and junk keys at most once, plus a stray
# chunk, in any order
_spec_text = st.tuples(
    _chunks("p", 1, 2), _chunks("s", 1, 2), _chunks("gen", 0, 1), _chunks("mod", 0, 1),
    _chunks("junk", 0, 1), st.lists(_junk, max_size=1),
).flatmap(lambda parts: st.permutations([c for part in parts for c in part])).map(",".join)


@settings(max_examples=300, deadline=None)
@given(_spec_text)
def test_field_spec_gives_field_or_aspw_error(text):
    try:
        ctx = parse_field_spec(text)
    except AspwError:
        return
    assert isinstance(ctx, FieldCtx)
