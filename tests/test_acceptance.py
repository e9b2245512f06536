"""Acceptance gate: twelve criteria, each one test, all tolerances exact.

Every test re-derives its expected values from first principles (exhaustive
enumeration, power iteration, literal definitions) rather than trusting the
library's own formulas, and finishes by printing one PASS line; run pytest
with -s (or check the verbose test ids) to see them.  Stated time budgets
are asserted, not just hoped for.
"""

import contextlib
import io
import math
import time
from itertools import combinations
from pathlib import Path

from chainendo import analysis, claims, counting, diagram, simplex, strings, triangle
from chainendo.core import (
    all_endomorphisms,
    constant,
    identity,
    parse_compact,
)
from chainendo.simplex import SimplexSpec
from chainendo.strings import StringSpec
from chainendo.triangle import Region, TriangleSpec


def _triangle_specs(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for a, b, c in combinations(range(n), 3):
            yield TriangleSpec(n, a, b, c)


def _string_specs(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for a, b in combinations(range(n), 2):
            yield StringSpec(n, a, b)


def _simplex_specs(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for size in range(1, n + 1):
            for verts in combinations(range(n), size):
                yield SimplexSpec(n, verts)


def endo(text, n):
    return parse_compact(text, n)


def test_criterion_01_triangle_order():
    start = time.perf_counter()
    for spec in _triangle_specs(3, 10):
        want = math.comb(spec.n + 2, 2)
        assert len(triangle.elements(spec)) == want, spec
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    print(f"PASS criterion-01 triangle-order n<=10 exact ({elapsed:.2f}s)")


def test_criterion_02_smallest_interior():
    spec = TriangleSpec(4, 1, 2, 3)
    els = triangle.elements(spec)
    assert len(els) == 15
    inner = triangle.interior(spec)
    assert set(inner) == {
        endo("1_2 2 3", 4), endo("1 2_2 3", 4), endo("1 2 3_2", 4)
    }
    top = endo("1 2 3_2", 4)
    assert top * top == endo("2 3_3", 4)
    sum_identities = [
        ("1_2 2 3", "1_2 2_2", "1_3 3"),
        ("1 2_2 3", "1 2_3", "1_3 3"),
        ("1 2 3_2", "1 2_3", "1_2 3_2"),
    ]
    for total, left, right in sum_identities:
        assert endo(left, 4) + endo(right, 4) == endo(total, 4), total
    print("PASS criterion-02 smallest-triangle interior and sums exact")


def test_criterion_03_eight_region_partition():
    start = time.perf_counter()
    for spec in _triangle_specs(3, 8):
        n, a, b, c = spec.n, spec.a, spec.b, spec.c
        report = triangle.decompose(spec)
        assert report.disjoint and report.cover, spec
        assert report.all_closed, spec
        sizes = {r: len(s.elements) for r, s in report.regions.items()}
        assert sizes[Region.NIL_A] == (n - c) * (n + c - 2 * b + 1) // 2, spec
        assert sizes[Region.NIL_B] == (a + 1) * (n - c), spec
        assert sizes[Region.NIL_C] == (a + 1) * (2 * b - a + 2) // 2, spec
        assert sizes[Region.L_PAR] == (b - a) * (n - c), spec
        assert sizes[Region.R_PAR] == (a + 1) * (c - b), spec
        assert sizes[Region.RIGHT_IDENTITIES] == (b - a) * (c - b), spec
        assert (
            sizes[Region.L_TRI] + sizes[Region.R_TRI]
            == ((c - b) ** 2 + (b - a) ** 2 + c - a) // 2
        ), spec
        assert sum(sizes.values()) == math.comb(n + 2, 2), spec
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget is 60s"
    print(f"PASS criterion-03 eight-region partition n<=8 exact ({elapsed:.2f}s)")


def test_criterion_04_example_triangle_counts():
    report = triangle.decompose(TriangleSpec(6, 1, 3, 4))
    sizes = {r: len(s.elements) for r, s in report.regions.items()}
    assert sizes[Region.NIL_A] == 5
    assert sizes[Region.NIL_B] == 4
    assert sizes[Region.NIL_C] == 7
    assert sizes[Region.L_PAR] == 4
    assert sizes[Region.R_PAR] == 2
    assert sizes[Region.L_TRI] + sizes[Region.R_TRI] == 4
    assert sizes[Region.RIGHT_IDENTITIES] == 2
    assert sum(sizes.values()) == 28
    print("PASS criterion-04 example triangle region counts 5/4/7/4/2/4/2 exact")


def test_criterion_05_catalan_counts():
    for n in range(2, 10):
        counts = [0] * n
        for e in all_endomorphisms(n):
            power = e
            for _ in range(n):
                nxt = power * power
                if nxt == power:
                    break
                power = nxt
            if power.is_constant():
                counts[power.values[0]] += 1
        for a in range(n):
            want = counting.catalan(a) * counting.catalan(n - 1 - a)
            assert counts[a] == want, (n, a)
    print("PASS criterion-05 nilpotent counts match catalan products n<=9 exact")


def test_criterion_06_idempotent_fixed_point_counts():
    for n in range(3, 8):
        by_fixed = {}
        for e in all_endomorphisms(n):
            if e * e == e:
                key = e.fixed_points()
                by_fixed[key] = by_fixed.get(key, 0) + 1
        for size in range(1, n + 1):
            for fixed in combinations(range(n), size):
                want = math.prod(y - x for x, y in zip(fixed, fixed[1:]))
                assert by_fixed.get(fixed, 0) == want, (n, fixed)
        # every idempotent fixes something, so the buckets cover everything
        assert () not in by_fixed
    print("PASS criterion-06 idempotent fixed-point counts n<=7 exact")


def test_criterion_07_string_structure():
    for spec in _string_specs(2, 8):
        n, a, b = spec.n, spec.a, spec.b
        part = strings.partition_string(spec)
        assert len(part.nil_low) == n - b, spec
        assert len(part.idem) == b - a, spec
        assert len(part.nil_high) == a + 1, spec

        low = analysis.triviality(part.nil_low)
        assert low.is_trivial and low.iota == constant(n, a), spec
        assert low.iota_is_min, spec
        high = analysis.triviality(part.nil_high)
        assert high.is_trivial and high.iota == constant(n, b), spec
        assert high.iota_is_max, spec

        members = strings.elements(spec)
        rids = {e for e in members if all(x * e == x for x in members)}
        assert rids == set(part.idem), spec

        for k in range(n + 1):
            for ell in range(n + 1):
                assert strings.string_mul_cases(spec, k, spec, ell) == (
                    strings.elem(spec, k) * strings.elem(spec, ell)
                ), (spec, k, ell)

        for r in range(1, n + 1):
            ok, _ = analysis.is_subsemiring(strings.family_top(spec, r))
            assert ok == (r >= a + 1), (spec, r)
        for s in range(n):
            ok, _ = analysis.is_subsemiring(strings.family_bottom(spec, s))
            assert ok == (s <= b), (spec, s)
    print("PASS criterion-07 string partition/triviality/identities/families exact")


def test_criterion_08_isomorphism_verdicts():
    for n in range(2, 7):
        specs = list(_string_specs(n, n))
        for i, first in enumerate(specs):
            for second in specs[i + 1:]:
                same, _ = analysis.iso_check(
                    strings.elements(first), strings.elements(second)
                )
                assert not same, (first, second)
    for spec in _triangle_specs(3, 7):
        for vertex in (spec.a, spec.c):
            for layer in triangle.basic_layers(spec, vertex):
                iso = triangle.layer_string_iso(spec, vertex, layer.k)
                assert iso.holds, (spec, vertex, layer.k)
    print("PASS criterion-08 string non-isomorphism n<=6, layer isomorphisms n<=7")


def test_criterion_09_neighborhood_fixing_equalities():
    for spec in _simplex_specs(1, 7):
        els = simplex.enumerate_simplex(spec)
        low = spec.vertices[0]
        if spec.n - low - 1 >= 1:
            hood = set(simplex.discrete_neighborhood(spec, 0, spec.n - low - 1))
            assert hood == {e for e in els if e.values[low] == low}, spec
        top = spec.vertices[-1]
        if top >= 1:
            hood = set(simplex.discrete_neighborhood(spec, spec.k - 1, top))
            assert hood == {e for e in els if e.values[top] == top}, spec
        for m in range(spec.k):
            ok, _ = analysis.is_subsemiring(
                simplex.discrete_neighborhood(spec, m, 1)
            )
            assert ok, (spec, m, 1)
            if spec.n >= 2 and simplex.is_internal(spec):
                ok, _ = analysis.is_subsemiring(
                    simplex.discrete_neighborhood(spec, m, 2)
                )
                assert ok, (spec, m, 2)
    print("PASS criterion-09 neighborhood fixing equalities and closures n<=7")


def test_criterion_10_fixing_block_structure():
    for spec in _triangle_specs(3, 8):
        n, a, b, c = spec.n, spec.a, spec.b, spec.c
        report = triangle.idempotent_triangle(spec)
        assert len(report.ri) == (b - a) * (c - b), spec
        assert analysis.is_subsemiring(report.ri)[0], spec
        assert len(report.rest) == ((c - b) ** 2 + (b - a) ** 2 + c - a) // 2, spec
        assert analysis.is_subsemiring(report.rest)[0], spec
        assert analysis.is_ideal(report.diagonal, report.it)[0], spec
        assert analysis.is_ideal(report.rest, report.it)[0], spec
        assert all(x * alpha == x for x in report.diagonal for alpha in report.it), spec
        if c - a != c - b:
            assert counting.ri_order_variant(n, a, b, c) != len(report.ri), spec
    print("PASS criterion-10 fixing-block orders/ideals/left-zeroes n<=8 exact")


def test_criterion_11_similarity_and_identities():
    for spec in _triangle_specs(3, 7):
        members = triangle.elements(spec)
        ids = analysis.identities(members)
        assert triangle.find_similar_pairs(spec, "right") == (), spec
        if spec == TriangleSpec(3, 0, 1, 2):
            assert identity(3) in ids.two_sided
            assert triangle.left_similar_witness(spec) is None
            continue
        assert len(triangle.right_identities(spec)) >= 1, spec
        assert len(ids.left) == 0, spec
        first, second = triangle.left_similar_witness(spec)
        assert first != second, spec
        rids = set(triangle.right_identities(spec))
        assert first not in rids and second not in rids, spec
        for x in members:
            assert x * first == x * second, (spec, x)
    print("PASS criterion-11 identities and one-sided similarity n<=7 exhaustive")


def test_criterion_12_determinism_and_goldens(tmp_path):
    from chainendo.cli import main

    spec_literal = "tri n=6 a=1 b=3 c=4"
    for argv in (
        ["elements", spec_literal, "--json"],
        ["decompose", spec_literal, "--json"],
    ):
        first_file = tmp_path / "first.json"
        second_file = tmp_path / "second.json"
        for path in (first_file, second_file):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(list(argv)) == 0
            path.write_text(buffer.getvalue())
        assert first_file.read_bytes() == second_file.read_bytes(), argv

    big = TriangleSpec(6, 1, 3, 4)
    for mode in ("ascii", "svg"):
        assert diagram.render(big, mode, "region") == diagram.render(
            big, mode, "region"
        )

    ids = ["simplex-order", "eight-region-partition", "string-partition"]
    seq = claims.run_all(4, jobs=1, ids=ids)
    par = claims.run_all(4, jobs=2, ids=ids)
    meaningful = lambda rs: [
        (r.claim_id, r.n_max, r.checked, r.holds, r.failure_params, r.witness)
        for r in rs
    ]
    assert meaningful(seq) == meaningful(par)

    golden = Path(__file__).parent / "golden"
    small = TriangleSpec(4, 1, 2, 3)
    assert diagram.render_ascii(small) == (golden / "tri4_plain.txt").read_text()
    assert diagram.render_ascii(big, color_by="region") == (
        golden / "tri6_region.txt"
    ).read_text()
    assert diagram.render_svg(small, color_by="region") == (
        golden / "tri4_region.svg"
    ).read_text()
    print("PASS criterion-12 byte-determinism, jobs-invariance, golden files")
