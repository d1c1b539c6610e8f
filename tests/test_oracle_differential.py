"""Residue fields kept per degree against the per-place scan.

aspw.oracle.ResidueField finds each place's residue root once and counts
the fibres of f once per field; tests/oracle_reference.py builds the
residue field, finds P's root and counts the roots of f(X) = u(P) afresh
at every place.  Root counts and per-layer verdicts must agree at every
place of degree 1 and 2 over F_4, F_8 and F_9, and of degree 1 over F_27,
for f = X^q - X and for a subspace polynomial; where u has a pole both
raise PoleAtPlace.  Derandomized, so a failure replays.
"""

from __future__ import annotations

import random

import pytest

import oracle_reference
from aspw.addpoly import AdditivePoly, subspace_poly
from aspw.asext import ExtensionSpec
from aspw.errors import PoleAtPlace
from aspw.gf import make_field
from aspw.oracle import ResidueField, layer_oracle, splitting_oracle
from conftest import rand_ratfunc

CASES = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 1)]


@pytest.mark.parametrize("p, s, max_degree", CASES,
                         ids=[f"F{p ** s}-deg{d}" for p, s, d in CASES])
def test_shared_fields_match_per_place_scan(p, s, max_degree):
    ctx = make_field(p, s)
    rng = random.Random(100 * p + s)
    fields = {d: ResidueField(ctx, d) for d in range(1, max_degree + 1)}
    images = {d: oracle_reference.residue_wp_image(ctx, d) for d in fields}
    places = [pl for field in fields.values() for pl in field.places()]
    subspace = [ctx.gen()] if s == 2 else [ctx.one(), ctx.gen()]
    counts = set()
    verdicts = set()
    for f in (AdditivePoly.frobenius_minus_id(ctx, s), subspace_poly(ctx, subspace)):
        for _ in range(3):
            spec = ExtensionSpec(f, rand_ratfunc(rng, ctx, 2), ctx)
            regular = []
            for place in places:
                try:
                    expected = oracle_reference.splitting_count(spec, place)
                except PoleAtPlace:
                    with pytest.raises(PoleAtPlace):
                        splitting_oracle(spec, place)
                    continue
                assert splitting_oracle(spec, place) == expected, (str(spec.u), str(place))
                counts.add(expected)
                regular.append(place)
            layers = layer_oracle(spec, regular)
            assert layers == oracle_reference.layer_verdicts(spec, regular, images)
            verdicts.update(v for row in layers for v in row)
    assert 0 in counts and len(counts) > 1 and verdicts == {True, False}
