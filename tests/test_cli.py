"""Command line front end: spec literals, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainendo import claims, diagram
from chainendo.cli import main, parse_spec
from chainendo.core import ChainEndoError
from chainendo.simplex import SimplexSpec
from chainendo.strings import StringSpec
from chainendo.triangle import TriangleSpec

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParseSpec:
    def test_simplex_with_and_without_keyword(self):
        assert parse_spec("sim n=6 A=1,3,4") == SimplexSpec(6, (1, 3, 4))
        assert parse_spec("n=6 A=1,3,4") == SimplexSpec(6, (1, 3, 4))

    def test_string_and_triangle(self):
        assert parse_spec("str n=4 a=1 b=2") == StringSpec(4, 1, 2)
        assert parse_spec("tri n=6 a=1 b=3 c=4") == TriangleSpec(6, 1, 3, 4)

    def test_field_order_is_free(self):
        assert parse_spec("tri c=4 a=1 n=6 b=3") == TriangleSpec(6, 1, 3, 4)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "tri n=4",
            "tri n=4 a=1 b=2 c=3 d=4",
            "tri n=4 a=1 a=2 b=2 c=3",
            "str n=4 a=one b=2",
            "sim n=4",
            "sim n=4 A=x,y",
            "str n=4 a=1 b=2 junk",
        ],
    )
    def test_rejected_literals(self, bad):
        with pytest.raises(ChainEndoError):
            parse_spec(bad)


class TestElements:
    def test_text_listing(self, capsys):
        assert main(["elements", "str n=4 a=1 b=2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["1_4", "1_3 2", "1_2 2_2", "1 2_3", "2_4"]

    def test_json_listing(self, capsys):
        assert main(["elements", "str n=4 a=1 b=2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "str"
        assert payload["n"] == 4
        assert payload["elements"][0] == [1, 1, 1, 1]
        assert len(payload["elements"]) == 5

    def test_json_output_is_byte_stable(self, capsys):
        main(["elements", "tri n=5 a=1 b=2 c=3", "--json"])
        first = capsys.readouterr().out
        main(["elements", "tri n=5 a=1 b=2 c=3", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_bad_spec_exits_two(self, capsys):
        assert main(["elements", "tri n=3 a=2 b=1 c=0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTable:
    def test_text_table_shape(self, capsys):
        assert main(["table", "str n=3 a=0 b=1", "--op", "mul"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5  # header plus one row per member
        assert "0_3" in lines[0] and "1_3" in lines[0]
        assert lines[1].lstrip().startswith("0_3")

    def test_json_table_is_square(self, capsys):
        assert main(["table", "str n=3 a=0 b=2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        size = len(payload["labels"])
        assert size == 4
        assert len(payload["table"]) == size
        assert all(len(row) == size for row in payload["table"])
        assert payload["op"] == "mul"

    def test_add_table_diagonal_is_idempotent(self, capsys):
        assert main(["table", "str n=3 a=0 b=2", "--op", "add", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for i, label in enumerate(payload["labels"]):
            assert payload["table"][i][i] == label


class TestClassify:
    def test_chain_size_derived_from_the_literal(self, capsys):
        assert main(["classify", "1_3 2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4
        assert payload["kind"] == "nilpotent"
        assert payload["idempotent"] == "1_4"
        assert payload["exponent"] == 2
        assert payload["target"] == 1

    def test_explicit_chain_size(self, capsys):
        assert main(["classify", "2_5", "--n", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 5
        assert payload["kind"] == "idempotent"

    def test_inconsistent_chain_size_exits_two(self, capsys):
        assert main(["classify", "2_4", "--n", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_text_mode_prints_key_value_lines(self, capsys):
        assert main(["classify", "0_2 1 3_3"]) == 0
        out = capsys.readouterr().out
        assert "kind: root_of_idempotent" in out

    def test_invalid_literal_exits_two(self, capsys):
        assert main(["classify", "2 1"]) == 2
        assert capsys.readouterr().err


class TestDecompose:
    @pytest.mark.parametrize("n", [16, 20])
    def test_long_chain_exits_two(self, n, capsys):
        assert main(["decompose", f"tri n={n} a=1 b=2 c=14"]) == 2
        assert "n <= 15" in capsys.readouterr().err

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    @pytest.mark.parametrize("n", [16, 20])
    def test_long_chain_exits_two_in_a_fresh_interpreter(self, n, optimize):
        # under -O the asserts that once caught the key overflow are gone
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, *optimize, "-m", "chainendo", "decompose", f"tri n={n} a=1 b=2 c=14"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert "n <= 15" in done.stderr and "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_text_report(self, capsys):
        assert main(["decompose", "tri n=4 a=1 b=2 c=3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert lines[-1] == "disjoint=yes cover=yes ok=yes"
        assert all("closed=yes" in line for line in lines[:-1])

    def test_with_elements(self, capsys):
        assert main(["decompose", "tri n=4 a=1 b=2 c=3", "--with-elements"]) == 0
        out = capsys.readouterr().out
        assert "1_4 | 1_3 2" in out

    def test_json_report(self, capsys):
        assert main(["decompose", "tri n=6 a=1 b=3 c=4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["disjoint"] and payload["cover"]
        regions = payload["regions"]
        assert set(regions) == {
            "nil_a", "nil_b", "nil_c", "l_par", "r_par", "l_tri", "r_tri",
            "right_identities",
        }
        assert regions["nil_a"]["count"] == 5
        assert regions["right_identities"]["count"] == regions[
            "right_identities"
        ]["formula"]

    def test_string_blocks_text(self, capsys):
        assert main(["decompose", "str n=4 a=1 b=2", "--with-elements"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("nil_a") and "1_4 | 1_3 2" in lines[0]
        assert lines[1].startswith("id") and "1_2 2_2" in lines[1]
        assert lines[2].startswith("nil_b") and "2_4" in lines[2]

    def test_string_blocks_json(self, capsys):
        assert main(["decompose", "str n=6 a=2 b=4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        blocks = payload["blocks"]
        assert set(blocks) == {"nil_a", "id", "nil_b"}
        # block sizes n-b, b-a, a+1
        assert blocks["nil_a"]["count"] == 2
        assert blocks["id"]["count"] == 2
        assert blocks["nil_b"]["count"] == 3
        assert blocks["nil_a"]["elements"][0] == "2_6"

    def test_requires_triangle_or_string(self, capsys):
        assert main(["decompose", "sim n=4 A=1,2,3"]) == 2
        assert capsys.readouterr().err


class TestCheck:
    def test_single_claim_passes(self, capsys):
        code = main(["check", "mul-noncommutative", "--n-max", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("pass")
        assert "mul-noncommutative" in out

    def test_list_prints_every_claim(self, capsys):
        assert main(["check", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 44
        assert all(": " in line for line in lines)

    def test_vacuous_bound_still_passes(self, capsys):
        # pinned behaviour: nothing to check below the family's first size
        assert main(["check", "string-noniso", "--n-max", "2"]) == 0
        assert "checked=0" in capsys.readouterr().out

    def test_json_results(self, capsys):
        code = main(
            ["check", "simplex-order", "string-partition", "--n-max", "4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload] == [
            "simplex-order",
            "string-partition",
        ]
        assert all(entry["holds"] for entry in payload)

    def test_unknown_claim_exits_two(self, capsys):
        assert main(["check", "bogus-claim"]) == 2
        assert "unknown claim" in capsys.readouterr().err

    def test_failing_claim_exits_one(self, capsys):
        claim_id = "synthetic-always-false"
        claims.REGISTRY[claim_id] = claims.Claim(
            claim_id,
            "synthetic claim that always fails",
            lambda n_max: iter([(3,)]),
            lambda params: (False, {"reason": "by construction"}),
        )
        try:
            assert main(["check", claim_id, "--n-max", "3"]) == 1
            out = capsys.readouterr().out
            assert "FAIL" in out and "by construction" in out
        finally:
            del claims.REGISTRY[claim_id]


class TestCounts:
    def test_audit_passes(self, capsys):
        assert main(["counts", "--n-max", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 18 and "FAIL" not in out

    def test_json_audit(self, capsys):
        assert main(["counts", "--n-max", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["n_max"] == 4
        assert len(payload["formulas"]) == 18


class TestRender:
    def test_stdout_matches_library_output(self, capsys):
        assert main(["render", "tri n=4 a=1 b=2 c=3"]) == 0
        out = capsys.readouterr().out
        assert out == diagram.render(TriangleSpec(4, 1, 2, 3))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "diagram.svg"
        code = main(
            [
                "render",
                "tri n=4 a=1 b=2 c=3",
                "--mode",
                "svg",
                "--color-by",
                "region",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("<?xml")

    def test_requires_triangle(self, capsys):
        assert main(["render", "sim n=4 A=1,2"]) == 2
        assert capsys.readouterr().err

    def test_oversized_svg_exits_two(self, capsys):
        assert main(["render", "tri n=300 a=1 b=2 c=3", "--mode", "svg"]) == 2
        assert capsys.readouterr().err


class TestIso:
    def test_isomorphic_singletons(self, capsys):
        assert main(["iso", "sim n=4 A=1", "sim n=4 A=2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "isomorphic"
        assert lines[1] == "1_4 -> 2_4"

    def test_nonisomorphic_strings_exit_one(self, capsys):
        assert main(["iso", "str n=4 a=1 b=2", "str n=4 a=1 b=3"]) == 1
        assert capsys.readouterr().out.strip() == "not isomorphic"

    def test_json_verdict(self, capsys):
        assert main(["iso", "str n=5 a=1 b=3", "str n=5 a=1 b=3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isomorphic"] is True
        assert payload["mapping"]["1_5"] == "1_5"
