import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_sparse_poly
from igusa import cli
from igusa.cli import (
    SCHEMA, ParseError, _build_parser, _parse_args, _render_json, main, parse_polynomial, run,
)
from igusa.mpoly import MAX_LIFTS


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestParse:
    def test_juxtaposition_multiplies(self):
        assert str(parse_polynomial("3x")) == "3*x"
        assert str(parse_polynomial("x y")) == "x*y"

    def test_names_are_words(self):
        f = parse_polynomial("xy")
        assert f.variables == ("xy",)
        assert f.nvars == 1

    def test_constants_and_signs(self):
        f = parse_polynomial("x^2 - 5")
        assert f.evaluate((3,)) == 4
        assert str(f) == "x^2 - 5"

    @pytest.mark.parametrize(
        "text,position",
        [
            ("x^^2", 1),
            ("x^10000001", 2),
            ("", 0),
            ("x$", 1),
            ("3*", 2),
            ("x^", 1),
            ("x^999999 y x^2", 11),  # the exponent of x sums to 1000001
            ("99^1000000", 0),  # a coefficient over 10^6 bits, refused before it is computed
            ("2^1000000", 0),  # 1,000,001 bits
            ("x 3^700000", 2),  # about 1.1 * 10^6 bits, refused once computed
        ],
    )
    def test_error_positions(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert exc.value.position == position
        assert f"position {position}" in str(exc.value)

    @settings(max_examples=60)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_roundtrip_through_str(self, seed):
        rng = random.Random(seed)
        f = random_sparse_poly(rng, rng.choice([1, 2, 3]), origin_vanishing=False)
        g = parse_polynomial(str(f))
        # canonical text is a fixed point, and reparsing it is stable at
        # the object level (the parser only sees variables that occur)
        assert str(g) == str(f)
        assert parse_polynomial(str(g)) == g


# `parse_polynomial` on a hand list that reaches each of its raises, then on
# seeded strings of names, ints, operators, whitespace and a stray character:
# recorded before the parser became one loop (python tests/test_cli.py
# writes the file from whatever parser is current)
GOLDEN_PARSE_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_parse.json")
PARSE_HAND = [
    "", "   ", "x$", "3 ( x", "x^2 @",
    "*x", "x + *y", "3*", "x * + y", "x**y", "x*",
    "x + ", "-", "+", "x - - y", "x + + 1", "3 -",
    "x^2^3", "x ^ 2 ^ 3", "x y ^", "2^3^4",
    "x^", "x^^2", "x^y", "2^-1", "2^",
    "x^10000001", "2^1000001", "x^1000000 x",
    "3x", "x y", "xy", "x^2 - 5", "-x", "+x", "- 3 x^2 y + 2", "0", "-0", "x - x",
    "2^3 x", "x^0", "0^0", "x*y*z", "3 x ^ 2", "x x", "x^2 x^3", "007 x", "x1 + x_1",
]
PARSE_ATOMS = ["x", "y", "z", "xy", "y2", "_t", "0", "1", "2", "3", "12", "+", "-", "*", "^", " ", "  ", "\t", "$"]


def _fuzz_texts(seed: int = 32, count: int = 2400):
    """Half random runs of atoms, half signed sums of monomials of which
    every other has one character replaced, dropped or doubled."""
    rng = random.Random(seed)
    texts = []
    for k in range(count):
        if k % 2:
            texts.append("".join(rng.choice(PARSE_ATOMS) for _ in range(rng.randint(0, 10))))
            continue
        text = ""
        for t in range(rng.randint(1, 4)):
            text += rng.choice(["", "-", "+", " - ", " + "] if t == 0 else ["-", "+", " - ", " + "])
            factors = []
            for _ in range(rng.randint(1, 3)):
                factor = rng.choice(["x", "y", "z", "xy", "2", "3", "12"])
                if rng.random() < 0.4:
                    factor += rng.choice(["^", " ^ "]) + rng.choice(["0", "1", "2", "3", "12"])
                factors.append(factor)
            text += rng.choice(["*", " * ", " "]).join(factors)
        if k % 4 == 2 and text:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice([rng.choice(PARSE_ATOMS), "", text[i] * 2]) + text[i + 1:]
        texts.append(text)
    return texts


def _parse_record(text: str) -> dict:
    try:
        f = parse_polynomial(text)
    except ParseError as exc:
        return {"text": text, "error": f"{type(exc).__name__}: {exc}", "position": exc.position}
    return {"text": text, "canonical": str(f), "variables": list(f.variables)}


def _golden_parse_json(texts) -> str:
    return "[\n" + ",\n".join(json.dumps(_parse_record(t)) for t in texts) + "\n]\n"


def test_parse_matches_golden():
    with open(GOLDEN_PARSE_PATH) as fh:
        recorded = fh.read()
    texts = [entry["text"] for entry in json.loads(recorded)]
    assert texts == PARSE_HAND + _fuzz_texts()
    assert _golden_parse_json(texts) == recorded


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("*x", "'*' with no left operand", 0),
        ("x + ", "expected a coefficient or variable", 4),
        ("x^2^3", "unexpected token '^'", 3),
    ],
)
def test_parse_errors_reached_by_the_hand_list(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert text in PARSE_HAND


def test_parse_accepts_sizes_at_the_limit():
    assert parse_polynomial("-2^999999").terms == {(): -(2**999999)}
    # a zero or one coefficient stays small whatever the exponent
    assert str(parse_polynomial("1^1000000 0^1000000 99^1000000 + 1^1000000 x^1000000")) == "x^1000000"


def run_argv(*argv):
    """``run`` on the arguments the command line parser makes of argv."""
    return run(argv[0], _build_parser(None).parse_args(argv))


class TestRunPayloads:
    def test_poles(self):
        payload, code = run_argv("poles", "-f", "x^2", "-g", "y^3")
        assert code == 0
        assert payload == {"poles": ["-1", "-5/6"]}

    def test_count(self):
        payload, code = run_argv("count", "-f", "x^2", "-p", "5", "--depth", "4")
        assert code == 0
        assert payload["counts"] == [1, 5, 5, 25]
        assert payload["series"] == ["4/5", "0", "4/25", "0"]
        assert payload["truncated"] is False
        assert payload["domain"] is None

    def test_spf_with_trace(self):
        payload, code = run_argv("spf", "-f", "x^2 - 5", "-p", "5", "--trace")
        assert code == 0
        assert payload["zeta"] == {
            "q": 5,
            "numerator": ["4/5", "1/25", "-1/25"],
            "denominator_factors": [[1, 1]],
        }
        assert payload["text"] == "(4/5 + 1/25*t - 1/25*t^2) / (1 - q^-1 t)  [q=5]"
        assert payload["trace"]["children"][0]["path"] == [[0]]

    def test_spf_without_trace(self):
        payload, _ = run_argv("spf", "-f", "x", "-p", "5")
        assert payload["text"] == "(4/5) / (1 - q^-1 t)  [q=5]"
        assert "trace" not in payload

    def test_verify_pass(self):
        payload, code = run_argv("verify", "-f", "x^2", "-g", "y^2", "-p", "5", "--depth", "8")
        assert code == 0
        assert payload["ok"] is True
        assert payload["poles_surviving"] == ["-1"]

    def test_verify_falsification_exits_2(self):
        payload, code = run_argv(
            "verify", "-f", "x^2", "-g", "y^3", "-p", "5", "--depth", "6", "--max-deg", "0"
        )
        assert code == 2
        assert payload["ok"] is False
        assert payload["residuals"] == [[1, "-4/125"], [2, "4/125"], [5, "-4/15625"]]

    def test_analyze_single(self):
        payload, code = run_argv("analyze", "-f", "x^2 + y^3")
        assert code == 0
        assert [f["normal"] for f in payload["polyhedron"]["facets"]] == [
            [0, 1],
            [1, 0],
            [3, 2],
        ]
        assert payload["noncritical"]["verdict"] == "non_critical"
        assert "denominator" not in payload

    def test_analyze_pair(self):
        payload, code = run_argv("analyze", "-f", "x^2", "-g", "y^3")
        assert code == 0
        den = payload["denominator"]
        assert den["universal"] == {"qpow": 1, "tpow": 1}
        assert den["factors"] == [
            {"a": [1], "b": [1], "qpow": 5, "tpow": 6, "inert": False}
        ]
        assert den["poles"] == ["-1", "-5/6"]

    def test_phi(self):
        payload, code = run_argv("phi", "-c", "2", "-d", "3", "--cw", "1", "--dw", "1")
        assert code == 0
        assert payload["period"] == 4
        assert payload["states"] == [[2, 3], [2, 1], [1, 3], [2, 2], [2, 3]]
        assert payload["mins"] == [1, 1, 2, 2]
        assert payload["picks"] == [1, 1, 2, 1]
        assert (payload["min_sum"], payload["pick_sum"]) == (6, 5)


SUBCOMMANDS = ["analyze", "poles", "spf", "count", "verify", "phi"]

USAGE_ERRORS = [
    ["spf", "-f", "x", "-p", "nope"],
    ["count", "-f", "x", "--bogus"],
    ["verify", "-f", "x"],
    ["analyze"],
    [],
    ["spf", "-f", "x", "--json"],
    ["analyze", "-f", "x", "--mode", "exact"],
    ["verify", "-f", "x^2", "-g", "y^3", "-p", "5", "--max-deg", "-1"],
    ["verify", "-f", "x^2", "-g", "y^3", "-p", "5", "--depth", "1"],
    ["spf", "-f", "x^2 - 5", "-p", "5", "--depth-guard", "-1"],
    ["count", "-f", "x", "-p", "5", "--budget", "-1"],
    ["count", "-f", "x", "-p", "5", "--budget", "abc"],
    ["spf", "-f", "x^2 - 5", "-p", "5", "--depth-guard", "301"],
    ["verify", "-f", "x^2", "-g", "y^3", "-p", "5", "--budget", "-1"],
]


class TestMain:
    def test_json_to_stdout(self):
        rc, out, err = invoke(["poles", "-f", "x^2", "-g", "y^3"])
        assert rc == 0
        assert err == ""
        assert json.loads(out) == {"schema": SCHEMA, "poles": ["-1", "-5/6"]}

    def test_parse_error_json_on_stderr(self):
        rc, out, err = invoke(["poles", "-f", "x^$", "-g", "y^3"])
        assert rc == 1
        assert out == ""
        report = json.loads(err)
        assert report["error"]["type"] == "ParseError"
        assert report["error"]["position"] == 2

    def test_bad_prime_reports_value_error(self):
        rc, out, err = invoke(["count", "-f", "x^2", "-p", "0", "--depth", "2"])
        assert rc == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("count -f x^2 -p 4 --depth 2", "not a prime: 4"),
            ("spf -f x -p 4", "not a prime: 4"),
            ("verify -f x^2 -g y^3 -p 4", "not a prime: 4"),
            ("count -f x -p 18446744073709551616",
             "primality is decided for p < 2^64 only, got 18446744073709551616"),
            # the prime is refused before any other fault of the request
            ("count -f x -p 4 --depth 0", "not a prime: 4"),
            ("verify -f x -g x -p 4", "not a prime: 4"),
            ("spf -f x -p 4 --depth-guard 301", "not a prime: 4"),
        ],
    )
    def test_bad_prime_is_the_first_refusal(self, argv, message):
        rc, out, err = invoke(argv.split())
        assert (rc, out) == (1, "")
        assert err == (
            '{\n  "schema": 1,\n  "error": {\n    "type": "ValueError",\n'
            f'    "message": "{message}"\n  }}\n}}\n'
        )

    def test_falsification_exit_code(self):
        rc, out, err = invoke(
            ["verify", "-f", "x^2", "-g", "y^3", "-p", "5", "--depth", "6", "--max-deg", "0"]
        )
        assert rc == 2
        assert json.loads(out)["ok"] is False

    def test_phi_tsv_table(self):
        rc, out, err = invoke(["phi", "-c", "2", "-d", "3", "--cw", "1", "--dw", "1", "--tsv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["step", "state_c", "state_d", "min", "pick"]
        assert lines[1].split("\t") == ["1", "2", "1", "1", "1"]
        assert lines[-2:] == ["min_sum\t6", "pick_sum\t5"]

    def test_count_tsv_table(self):
        rc, out, err = invoke(["count", "-f", "x^2", "-p", "5", "--depth", "4", "--tsv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m\tN_m"
        assert [l.split("\t")[1] for l in lines[1:]] == ["1", "5", "5", "25"]

    def test_count_over_budget_exits_1(self):
        rc, out, err = invoke(
            ["count", "-f", "x^2+y^3", "-p", "5", "--depth", "9", "--budget", "3"]
        )
        assert rc == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "BudgetExceeded"
        # x^2 is the first block: its nodes at precisions 9, 7 and 5 spend the budget
        assert error["message"] == (
            "value balls of x^2 stopped at class (0,) -> (0,) -> (0,) "
            "with precision 3/9 after 3 nodes (budget 3)"
        )

    def test_count_with_budget_0_stops_at_the_root(self):
        rc, out, err = invoke(["count", "-f", "x", "-p", "5", "--budget", "0"])
        assert rc == 1
        error = json.loads(err)["error"]
        assert error["type"] == "BudgetExceeded"
        assert error["message"].endswith("class (root) with precision 8/8 after 0 nodes (budget 0)")

    def test_count_over_the_residue_limit_exits_1(self):
        # one block in 4 variables: 53^4 = 7,890,481 residues mod 53,
        # refused before they are built
        rc, out, err = invoke(["count", "-f", "x*y*z*w", "-p", "53"])
        assert rc == 1
        error = json.loads(err)["error"]
        assert error["type"] == "BudgetExceeded"
        assert "53^4 = 7890481 residues" in error["message"]

    def test_count_of_small_blocks_passes_the_residue_limit(self):
        # four blocks of 53 residues each, where the whole would be 53^4
        rc, out, err = invoke(["count", "-f", "x + y + z + w", "-p", "53", "--depth", "1"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["counts"] == [53**3]
        # the four blocks are equal up to their names: one node
        assert payload["nodes_expanded"] == 1

    def test_spf_over_the_residue_limit_exits_1(self):
        # the full domain of 53^4 residues is refused before it is built
        rc, out, err = invoke(["spf", "-f", "x + y + z + w", "-p", "53"])
        assert rc == 1
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == (
            "a residue domain of dimension 4 mod 53 has 53^4 = 7890481 residues, "
            "over the limit of 4000000"
        )

    def test_analyze_over_the_torus_grid_limit_exits_1(self):
        # a poles polynomial of bench/reference.json: its improper face has
        # affine dimension 4, a grid of 100^4 torus points mod 101
        f = ("3*x^4*z*w + 3*x^3*y*z + 2*x*y^4*w - 2*x*y^2*z^4*w - 2*x*y*w"
             " - x*z^5*w^2 - 2*y^4*w^2 - 2*z^4*w^3")
        assert invoke(["analyze", "-f", f]) == (1, "", (
            '{\n  "schema": 1,\n  "error": {\n    "type": "ValueError",\n'
            '    "message": "torus grid of 4 coordinates in F_101^x has 100000000 points, '
            'over the limit of 4000000"\n  }\n}\n'
        ))

    def test_spf_torus_under_an_oversized_full_domain(self):
        # 3^14 residues exceed the limit, but the torus has 2^14 and a smooth f
        # never lifts to the full domain; nu = (2^14 - 5462)/3^14, with 5462
        # torus zeros of f
        f = "+".join("abcdefghijklmn")
        rc, out, err = invoke(["spf", "-f", f, "-p", "3", "--domain", "torus"])
        assert rc == 0, err
        zeta = json.loads(out)["zeta"]
        assert zeta["numerator"] == ["10922/4782969", "2/14348907"]
        assert zeta["denominator_factors"] == [[1, 1]]

    def test_count_nodes_are_value_ball_scans(self):
        rc, out, err = invoke(["count", "-f", "x^2+y^2+z^3", "-p", "3", "--depth", "8"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["counts"][-1] == 44109603
        # blocks x^2, y^2 (pushed to precision 8) and z^3 share one budget,
        # and x^2 and y^2 share their nodes
        assert (payload["nodes_expanded"], payload["truncated"]) == (11, False)

    def test_poles_tsv(self):
        rc, out, err = invoke(["poles", "-f", "x^2", "-g", "y^3", "--tsv"])
        assert rc == 0
        assert out.strip().splitlines() == ["pole", "-1", "-5/6"]

    def test_tsv_not_available_for_spf(self):
        rc, out, err = invoke(["spf", "-f", "x", "-p", "5", "--tsv"])
        assert rc == 1
        assert json.loads(err)["error"]["type"] == "ValueError"
        assert "--tsv" in json.loads(err)["error"]["message"]

    def test_missing_required_poly(self):
        rc, out, err = invoke(["poles", "-f", "x^2"])
        assert rc == 1
        assert "-g" in json.loads(err)["error"]["message"]

    def test_summand_with_a_leading_minus(self):
        # argparse reads "-x^2" as a flag; "-f=-x^2" hands it to -f
        rc, out, err = invoke(["count", "-f", "-x^2", "-p", "5"])
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == {"type": "ValueError", "message": "argument -f: expected one argument"}
        rc, out, err = invoke(["count", "-f=-x^2", "-p", "5", "--depth", "3"])
        assert (rc, err) == (0, "")
        assert json.loads(out)["f"] == "-x^2"
        rc, out, err = invoke(["poles", "-f=-x^2", "-g=-y^3"])
        assert (rc, err) == (0, "")
        assert json.loads(out)["poles"] == ["-1", "-5/6"]

    @pytest.mark.parametrize(
        "argv",
        USAGE_ERRORS,
        ids=lambda argv: " ".join(argv) or "no subcommand",
    )
    def test_usage_error_exits_1_as_json(self, argv):
        # exit 2 is kept for a verify run with residuals
        rc, out, err = invoke(argv)
        assert rc == 1
        assert out == ""
        report = json.loads(err)
        assert report["schema"] == SCHEMA
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"]
        if "--max-deg" in argv or "--depth" in argv:
            assert report["error"]["message"].startswith("unusable window")

    def test_lift_caps_hold_through_main(self):
        # an spf of MAX_LIFTS nested lifts runs and prints its trace, nested
        # 2 * MAX_LIFTS + 4 levels deep, and a count one lift past the cap
        # stops in-band
        rc, out, err = invoke(["spf", "-f", f"x^2 - 5^{2 * MAX_LIFTS}", "-p", "5",
                               "--depth-guard", str(MAX_LIFTS), "--trace"])
        assert rc == 0, err
        assert out.count('"children"') == MAX_LIFTS + 1
        assert out.endswith("}\n")
        rc, out, err = invoke(["count", "-f", "x^2", "-p", "2", "--depth", str(2 * MAX_LIFTS + 4)])
        assert rc == 1
        assert json.loads(err)["error"]["type"] == "BudgetExceeded"

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()) as out:
            main(["-h"])
        assert exc.value.code == 0
        assert "{" + ",".join(SUBCOMMANDS) + "}" in out.getvalue()

    @staticmethod
    def _help(cmd):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()) as out:
            main([cmd, "-h"])
        assert exc.value.code == 0
        return " ".join(out.getvalue().split())

    def test_verify_help_names_both_window_defaults(self):
        text = self._help("verify")
        assert ("--max-deg MAX_DEG numerator degree bound (default: depth-3 with --depth, "
                "else the sum of the predicted factors' t-powers)") in text
        assert ("--depth DEPTH levels of p-adic precision (default: max-deg + the sum of "
                "the predicted factors' t-powers + 2)") in text
        # the README's run: x^2 (+) y^3 at p = 5 has t-powers 1 and 6
        rc, out, err = invoke(["verify", "-f", "x^2", "-g", "y^3", "-p", "5"])
        report = json.loads(out)
        assert rc == 0, err
        assert sum(b for _, b in report["factors"]) == 7
        assert (report["max_deg"], report["depth"]) == (7, 7 + 7 + 2)
        rc, out, err = invoke(["verify", "-f", "x^2", "-g", "y^3", "-p", "5", "--depth", "9"])
        assert json.loads(out)["max_deg"] == 9 - 3

    def test_spf_help_states_the_depth_guard_range(self):
        assert (f"--depth-guard DEPTH_GUARD bound on nested singular lifts, 0..{MAX_LIFTS} "
                "(default 32)") in self._help("spf")

    def test_phi_refuses_a_base_pair_over_the_exponent_limit(self):
        # the orbit of (10^9 + 7, 998244353) would hold 2 * 10^9 states
        for c, d in [(10**6 + 1, 2), (1000000007, 998244353)]:
            rc, out, err = invoke(["phi", "-c", str(c), "-d", str(d)])
            assert (rc, out) == (1, "")
            assert json.loads(err)["error"] == {
                "type": "ValueError", "message": f"base pair ({c}, {d}) exceeds the limit 1000000"}

    def test_constant_term_error_names_the_polynomial(self):
        rc, out, err = invoke(["analyze", "-f", "x^2", "-g", "y^2+1"])
        assert rc == 1
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert "y^2 + 1" in message
        assert "x^2" not in message


# `igusa count` output recorded while it still counted by lifting; the
# node count and the truncation flag are not part of the comparison
with open(os.path.join(os.path.dirname(__file__), "data", "golden_count.json")) as fh:
    GOLDEN_COUNT = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN_COUNT, ids=lambda e: " ".join(e["argv"]))
def test_count_matches_golden(entry):
    rc, out, err = invoke(entry["argv"])
    assert rc == entry["code"], err
    dropped = ('  "nodes_expanded":', '  "truncated":')
    kept = "".join(line for line in out.splitlines(True) if not line.startswith(dropped))
    assert kept == entry["stdout"]


# `igusa spf` output recorded before its recursion shared classifications:
# the README examples, full and torus domains for p in {2, 3, 5, 7, 11,
# 13} and one to three variables, traces, and each depth-guard exit
with open(os.path.join(os.path.dirname(__file__), "data", "golden_spf.json")) as fh:
    GOLDEN_SPF = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN_SPF, ids=lambda e: " ".join(e["argv"]))
def test_spf_matches_golden(entry):
    assert invoke(entry["argv"]) == (entry["code"], entry["stdout"], entry["stderr"])


# `igusa verify` runs: the first three recorded before the denominator
# factors became plain (A, B) pairs; the rest, recorded before verify's
# series recovery ran on ints, are the README's examples, a critical
# summand, and the first 22 seeded direct sums of one- and two-variable
# summands at p in {2, 3, 5, 7} that exit 0 or 2 within a second: passes,
# exits 2 with residuals, and numerators that cancel one factor or a
# repeated one
with open(os.path.join(os.path.dirname(__file__), "data", "golden_verify.json")) as fh:
    GOLDEN_VERIFY = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN_VERIFY, ids=lambda e: " ".join(e["argv"]))
def test_verify_matches_golden(entry):
    assert invoke(entry["argv"]) == (entry["code"], entry["stdout"], entry["stderr"])


def _parsed(parse, argv):
    """The namespace `parse` makes of argv, its usage error, or its help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return parse(argv)
    except ValueError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, out.getvalue()


GOLDEN_ARGVS = [entry["argv"] for entry in GOLDEN_COUNT + GOLDEN_SPF + GOLDEN_VERIFY]
for name in ("golden_analyze_poles.json", "golden_analyze_many_vars.json"):
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        GOLDEN_ARGVS += [entry["argv"] for entry in json.load(fh)]


PARSER_ARGVS = (
    GOLDEN_ARGVS + USAGE_ERRORS + [["-h"]]
    + [[cmd, "-h"] for cmd in SUBCOMMANDS]
    + [[cmd] for cmd in SUBCOMMANDS if [cmd] not in USAGE_ERRORS]
    + [
        ["spf", "-f", "x", "--dom", "torus"],  # an abbreviated option
        ["spf", "-f", "x", "extra"],  # a stray positional
        ["phi", "--", "-c", "3"],
    ]
)


def _argv_id(argv):
    return " ".join(argv) or "no subcommand"


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=_argv_id)
def test_parser_of_one_subcommand_parses_as_the_full_one(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _parsed(_build_parser(None).parse_args, argv)
    assert _parsed(_parse_args, argv) == full


def _fresh(argv, monkeypatch):
    """What _parse_args makes of argv with a parser built for the call."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", _build_parser.__wrapped__)
        return _parsed(_parse_args, argv)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=_argv_id)
def test_a_cached_parser_parses_as_a_fresh_one(argv, monkeypatch):
    # twice, the first time right after a usage error on the same parser
    monkeypatch.setenv("COLUMNS", "80")
    fresh = _fresh(argv, monkeypatch)
    bad = argv[:1] + ["--no-such-flag"] if argv and argv[0] in SUBCOMMANDS else ["--no-such-flag"]
    assert isinstance(_parsed(_parse_args, bad), str)
    assert _parsed(_parse_args, argv) == fresh
    assert _parsed(_parse_args, argv) == fresh


@pytest.mark.parametrize("argv", [["-h"]] + [[cmd, "-h"] for cmd in SUBCOMMANDS], ids=_argv_id)
def test_help_width_is_read_when_help_prints(argv, monkeypatch):
    helps = []
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.append(_parsed(_parse_args, argv))
        assert helps[-1] == _fresh(argv, monkeypatch)
    if argv[0] == "verify":
        assert helps[0] != helps[1]


def test_misspelt_subcommands_add_no_parser():
    # the cache key is a subcommand or None, whatever argv[0] holds
    full = _build_parser.__wrapped__(None)
    for i in range(1000):
        name = SUBCOMMANDS[i % len(SUBCOMMANDS)]
        argv = [f"{name[:i % 3]}{i}{name[i % 3:]}", "-f", "x"]
        message = _parsed(_parse_args, argv)
        assert "invalid choice" in message
        assert message == _parsed(full.parse_args, argv)
    assert _build_parser.cache_info().currsize <= 7


def test_a_run_builds_one_subparser(monkeypatch):
    # phi's alone, once per process; the full parser would make 7
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    _build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert invoke(["phi", "-c", "3", "-d", "2"])[0] == 0
    assert built == ["igusa phi"]
    assert invoke(["phi", "-c", "3", "-d", "2"])[0] == 0
    assert built == ["igusa phi"]


_JSON_TEXT = st.text(st.characters(blacklist_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028é😀'))
_JSON_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.integers(-(10**60), 10**60) | _JSON_TEXT)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=40,
)


class TestRenderJson:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_TREES)
    def test_matches_json_dumps(self, tree):
        assert _render_json(tree) == json.dumps(tree, indent=2)

    def test_empty_containers_and_scalars(self):
        tree = {"a": [], "b": {}, "c": (), "d": [True, False, None, -(2**100), "\u00e9\n"]}
        assert _render_json(tree) == json.dumps(tree, indent=2)
        for leaf in ([], {}, (), 0, "", None):
            assert _render_json(leaf) == json.dumps(leaf, indent=2)

    def test_nesting_as_deep_as_the_longest_trace(self):
        # spf --trace at MAX_LIFTS nests 2 * MAX_LIFTS + 4 levels; rendering
        # takes one frame per level, under pytest's own frames
        levels = 2 * MAX_LIFTS + 8
        tree = {"leaf": [1, "x", None]}
        for level in range(levels - 2):
            tree = [tree, level] if level % 2 else {"n": level, "child": tree}
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + levels + 10)
        try:
            text = _render_json(tree)
        finally:
            sys.setrecursionlimit(limit)
        assert text == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("bad, json_refuses", [
        (1.5, False), (Fraction(1, 2), True), (np.int64(3), True), ({(1,): 2}, True), ({1: 2}, False),
    ], ids=["float", "Fraction", "numpy int", "tuple key", "int key"])
    def test_refuses_what_is_not_json(self, bad, json_refuses):
        # json.dumps prints floats and int keys; no payload has either
        for tree in (bad, {"a": [bad]}):
            with pytest.raises(TypeError):
                _render_json(tree)
            if json_refuses:
                with pytest.raises(TypeError):
                    json.dumps(tree, indent=2)


@pytest.mark.skipif(shutil.which("igusa") is None, reason="console script not on PATH")
def test_console_script_end_to_end():
    proc = subprocess.run(
        ["igusa", "poles", "-f", "x^2", "-g", "y^3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"schema": SCHEMA, "poles": ["-1", "-5/6"]}


def test_console_script_maps_to_main():
    # the tier-1 half of the end-to-end test above: the entry point that
    # installing the package would put on PATH
    import importlib

    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["igusa"]
    assert target == "igusa.cli:main"
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert entry(["poles", "-f", "x^2", "-g", "y^3"]) == 0
    assert json.loads(out.getvalue()) == {"schema": SCHEMA, "poles": ["-1", "-5/6"]}


def _loaded_after(code: str) -> str:
    """The last line printed by `code` in a fresh interpreter."""
    import igusa

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(igusa.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_sympy_out():
    # the subcommands import what they need when they run; importing the
    # CLI newly loads none of these.  Whatever the interpreter's start-up
    # loaded before the import does not count.
    code = (
        "import sys; before = set(sys.modules); import igusa.cli; "
        "new = set(sys.modules) - before; "
        "print(sorted(new & {'sympy', 'numpy', 'dataclasses', 'inspect', 'fractions'}))"
    )
    assert _loaded_after(code) == "[]"


def _loaded_after_main(argv) -> str:
    code = (
        f"import sys; from igusa.cli import main; main({argv!r}); "
        "print('sympy' in sys.modules, 'numpy' in sys.modules)"
    )
    return _loaded_after(code)


def test_phi_loads_no_numpy():
    assert _loaded_after_main(["phi", "-c", "3", "-d", "2"]) == "False False"


def test_poles_loads_no_numpy():
    # poles builds no residue array, so it must not pay numpy's import
    assert _loaded_after_main(["poles", "-f", "x^2", "-g", "y^3"]) == "False False"


def test_module_run_prints_no_warning():
    # the package must not import igusa.cli itself, or `python -m igusa.cli`
    # warns that the module was already in sys.modules
    import igusa

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(igusa.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "igusa.cli", "phi", "-c", "3", "-d", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_exact_analyze_finds_witness_quickly():
    # this input took an unbounded solver 74 s, which then found no witness
    import igusa

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(igusa.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "igusa.cli", "analyze", "-f", "x^5 + y^7 + x^2*y^2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["noncritical"]
    assert report["verdict"] == "critical"
    critical = [fc for fc in report["faces"] if fc["verdict"] == "critical"]
    assert critical and all(fc["witness"] is not None for fc in critical)


if __name__ == "__main__":
    with open(GOLDEN_PARSE_PATH, "w") as fh:
        fh.write(_golden_parse_json(PARSE_HAND + _fuzz_texts()))
