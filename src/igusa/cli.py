"""Command-line front end: parse polynomials, orchestrate the modules,
emit versioned JSON (or TSV from `count`, `poles` and `phi`, the
subcommands that take `--json`/`--tsv`).

Exit codes: 0 success, 2 falsification candidate (a `verify` run whose
numerator recovery left nonzero residuals), 1 any error, usage errors
included (a bad value, an unknown flag, a missing flag or subcommand).
Every error is rendered as structured JSON on standard error; `-h`
prints help and exits 0.

Each subcommand's parser is built once per process, when it first
runs, so a process that calls `main` many times parses without building.
JSON is rendered in one pass, byte-identical to `json.dumps(indent=2)`.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Dict, List, Optional, Tuple

from .mpoly import MAX_EXPONENT, MAX_LIFTS, Polynomial, from_terms
from .numeric import DEFAULT_BUDGET

SCHEMA = 1


class ParseError(ValueError):
    """Syntax error in a polynomial source string, with its position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# polynomial grammar: signed integer coefficients, identifiers, *, ^, + and -;
# juxtaposition multiplies (3x == 3*x); no parentheses.

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*+\-])"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def parse_polynomial(text: str) -> Polynomial:
    """Parse a sum of integer-coefficient monomials into canonical form.

    Variables are the identifiers that appear, in sorted order, so the
    printed canonical form parses back to an equal polynomial.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    tokens.append(("end", "", len(text)))
    terms: List[Tuple[int, Dict[str, int]]] = []
    i = 0
    while tokens[i][0] != "end":
        # a sign: optional before the first term, required between terms
        kind, value, pos = tokens[i]
        if kind == "op" and value in "+-":
            i += 1
        elif terms:
            raise ParseError(f"unexpected token {value!r}", pos)
        coeff = -1 if value == "-" else 1
        powers: Dict[str, int] = {}
        start = i
        # one term: factors joined by '*' or juxtaposition
        while True:
            kind, value, pos = tokens[i]
            if kind in ("int", "name"):
                exp = 1
                if tokens[i + 1][1] == "^":
                    if tokens[i + 2][0] != "int":
                        raise ParseError("'^' must be followed by a natural number", tokens[i + 1][2])
                    exp = int(tokens[i + 2][1])
                    if exp > MAX_EXPONENT:
                        raise ParseError(f"exponent {exp} exceeds the limit {MAX_EXPONENT}", tokens[i + 2][2])
                    i += 2
                i += 1
                if kind == "int":
                    base = int(value)
                    # base^exp has over exp * (bits(base) - 1) bits: a sure excess
                    # is refused before the power is computed, any other after
                    if coeff and (abs(coeff).bit_length() + exp * (base.bit_length() - 1) > MAX_EXPONENT
                                  or abs(coeff := coeff * base**exp).bit_length() > MAX_EXPONENT):
                        raise ParseError(f"coefficient exceeds the limit of {MAX_EXPONENT} bits", pos)
                else:
                    powers[value] = powers.get(value, 0) + exp
                    if powers[value] > MAX_EXPONENT:
                        raise ParseError(
                            f"exponent {powers[value]} of {value} exceeds the limit {MAX_EXPONENT}", pos)
            elif kind == "op" and value == "*":
                if i == start:
                    raise ParseError("'*' with no left operand", pos)
                if tokens[i + 1][0] not in ("int", "name"):
                    raise ParseError("'*' with no right operand", tokens[i + 1][2])
                i += 1
            else:
                break
        if i == start:
            raise ParseError("expected a coefficient or variable", pos)
        terms.append((coeff, powers))

    variables = sorted({name for _, powers in terms for name in powers})
    pairs = []
    for coeff, powers in terms:
        exps = tuple(powers.get(v, 0) for v in variables)
        pairs.append((exps, coeff))
    return from_terms(variables, pairs)


# ---------------------------------------------------------------------------
# orchestration


def run(cmd: str, req: argparse.Namespace) -> Tuple[dict, int]:
    """Execute one subcommand on the arguments ``_parse_args`` parsed;
    returns (payload, exit code).  ``main`` puts the schema key in front
    of the payload when it prints JSON."""
    if cmd == "phi":
        from . import euclid

        c, d = req.c, req.d
        orb = euclid.orbit(c, d)
        cw = req.c_weight if req.c_weight is not None else c
        dw = req.d_weight if req.d_weight is not None else d
        sums = euclid.weight_sums(orb, cw, dw)
        return {
            "c": c,
            "d": d,
            "e": orb.e,
            "e_prime": orb.e_prime,
            "period": orb.period,
            "states": [list(s) for s in orb.states],
            "c_weight": cw,
            "d_weight": dw,
            "mins": list(sums.mins),
            "picks": list(sums.picks),
            "min_sum": sums.min_sum,
            "pick_sum": sums.pick_sum,
        }, 0

    # the others load the same modules whichever of them runs
    # (bench/tracer.py wraps every one of them); numpy loads only with
    # the first residue array
    from . import newton, noncrit, oracle, spf, tsden

    f = parse_polynomial(req.f_text)

    if cmd == "analyze":
        poly = newton.build_polyhedron(f)
        report = noncrit.check_noncritical(f, polyhedron=poly)
        payload = {
            "f": str(f),
            "polyhedron": poly.as_dict(),
            "noncritical": report.as_dict(),
        }
        if req.g_text is not None:
            g = parse_polynomial(req.g_text)
            den = tsden.denominator(f, g, newton_f=poly)
            payload["g"] = str(g)
            payload["denominator"] = den.as_dict()
        return payload, 0

    if cmd == "poles":
        poles = tsden.denominator(f, parse_polynomial(req.g_text)).candidate_poles()
        return {"poles": [str(x) for x in poles]}, 0

    if cmd == "spf":
        result = spf.spf_evaluate(f, req.prime, torus=req.domain == "torus", depth_guard=req.depth_guard)
        payload = {
            "f": str(f),
            "p": req.prime,
            "domain": req.domain,
            "zeta": result.zeta.as_dict(),
            "text": str(result.zeta),
        }
        if req.trace:
            payload["trace"] = result.trace.as_dict()
        return payload, 0

    if cmd == "count":
        counts = oracle.ball_counts(f, req.prime, req.depth, budget=req.budget)
        series = oracle.measure_series(counts)
        return {**counts.as_dict(), "series": [str(c) for c in series]}, 0

    if cmd == "verify":
        g = parse_polynomial(req.g_text)
        report = oracle.verify_theorem(
            f, g, req.prime, depth=req.depth, max_deg=req.max_deg, budget=req.budget
        )
        return report.as_dict(), 0 if report.ok else 2

    raise ValueError(f"unknown subcommand {cmd!r}")


# ---------------------------------------------------------------------------
# rendering


def _render_tsv(cmd: str, payload: dict) -> str:
    if cmd == "count":
        lines = ["m\tN_m"]
        lines += [f"{m + 1}\t{n}" for m, n in enumerate(payload["counts"])]
        return "\n".join(lines)
    if cmd == "phi":
        lines = ["step\tstate_c\tstate_d\tmin\tpick"]
        for idx, st in enumerate(payload["states"][1:], start=1):
            lines.append(
                f"{idx}\t{st[0]}\t{st[1]}\t{payload['mins'][idx - 1]}\t{payload['picks'][idx - 1]}"
            )
        lines.append(f"min_sum\t{payload['min_sum']}")
        lines.append(f"pick_sum\t{payload['pick_sum']}")
        return "\n".join(lines)
    return "\n".join(["pole"] + payload["poles"])


_encode_str = json.encoder.encode_basestring_ascii


def _render_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, rendered in one pass.

    Strings, keys included, go through json's own ASCII escaper and ints
    through ``int.__repr__``; tuples print as lists.  Anything else, a
    float or a non-``str`` key among them, raises ``TypeError``.
    """
    out: List[str] = []
    _emit_json(obj, out, "\n")
    return "".join(out)


def _emit_json(obj, out: List[str], newline: str) -> None:
    """Append obj's JSON to out; ``newline`` is "\\n" and the indent of
    obj's line.  One frame per nesting level: a deep ``spf --trace``
    nests over 600 levels."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _emit_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _emit_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _natural(text: str) -> int:
    """The argparse type of an option that takes an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so ``main`` reports it as JSON."""

    def error(self, message: str):
        raise ValueError(message)


def _formats(sp) -> None:
    sp.add_argument("--json", dest="fmt", action="store_const", const="json",
                    default="json", help="JSON output (default)")
    sp.add_argument("--tsv", dest="fmt", action="store_const", const="tsv", help="TSV output")


def _polys(sp, *, g: Optional[bool] = None, prime=False, tsv=False) -> None:
    """-f; g None takes no -g, else requires it or not."""
    sp.add_argument("-f", dest="f_text", metavar="POLY", required=True,
                    help="polynomial, e.g. 'x^2 + y^3'")
    if g is not None:
        sp.add_argument("-g", dest="g_text", metavar="POLY", required=g,
                        help="second polynomial (disjoint variables)")
    if prime:
        sp.add_argument("-p", dest="prime", type=int, default=5, help="prime (default 5)")
    if tsv:
        _formats(sp)


def _budget(sp) -> None:
    sp.add_argument("--budget", type=_natural, default=DEFAULT_BUDGET,
                    help="node budget (default 10^8) shared by the blocks of "
                    "disjoint variables; a node is one polynomial mod p^m up to a "
                    "unit and precision m, counted once over all blocks, and nodes "
                    "with one reduction mod p share one scan of the p^n residues")


def _spf_args(sp) -> None:
    _polys(sp, prime=True)
    sp.add_argument("--domain", choices=["full", "torus"], default="full")
    sp.add_argument("--trace", action="store_true", help="include the recursion trace")
    sp.add_argument("--depth-guard", dest="depth_guard", type=_natural, default=32,
                    help=f"bound on nested singular lifts, 0..{MAX_LIFTS} (default 32)")


def _count_args(sp) -> None:
    _polys(sp, prime=True, tsv=True)
    sp.add_argument("--depth", type=int, default=8, help="levels of p-adic precision (default 8)")
    _budget(sp)


def _verify_args(sp) -> None:
    _polys(sp, g=True, prime=True)
    sp.add_argument("--depth", type=int, default=None,
                    help="levels of p-adic precision (default: max-deg + the sum of "
                    "the predicted factors' t-powers + 2)")
    _budget(sp)
    sp.add_argument("--max-deg", dest="max_deg", type=int, default=None,
                    help="numerator degree bound (default: depth-3 with --depth, else "
                    "the sum of the predicted factors' t-powers); exit 2 can mean "
                    "it is below the numerator's degree")


def _phi_args(sp) -> None:
    sp.add_argument("-c", type=int, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("--cw", dest="c_weight", type=int, default=None, help="weight of c-steps")
    sp.add_argument("--dw", dest="d_weight", type=int, default=None, help="weight of d-steps")
    _formats(sp)


_COMMANDS = {  # name: (help, builder of its arguments)
    "analyze": ("Newton polyhedron, non-criticality, denominator", lambda sp: _polys(sp, g=False)),
    "poles": ("candidate poles of the direct-sum zeta function",
              lambda sp: _polys(sp, g=True, tsv=True)),
    "spf": ("exact stationary-phase evaluation of the integral", _spf_args),
    "count": ("count solutions mod p^m", _count_args),
    "verify": ("check the predicted denominator against counts", _verify_args),
    "phi": ("orbit and weight tables of the interleaving map", _phi_args),
}


@functools.cache
def _build_parser(cmd: Optional[str]) -> argparse.ArgumentParser:
    """The parser of subcommand ``cmd`` alone, as ``add_parser`` would
    make it, when ``cmd`` names one; else (``None``) the full ``igusa``
    parser.  Built once per process: parsing leaves a parser as it was,
    and help reads its width when it is printed."""
    if cmd is not None:
        # add_parser's prog is "igusa <name>", and it sets no description
        parser = _Parser(prog=f"igusa {cmd}")
        parser.set_defaults(cmd=cmd, fmt="json")
        _COMMANDS[cmd][1](parser)
        return parser
    parser = _Parser(
        prog="igusa",
        description="Exact local zeta data: Newton polyhedra, candidate poles, "
        "stationary-phase evaluation, and point-counting verification.",
    )
    parser.set_defaults(fmt="json")  # for the subcommands that print only JSON
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (summary, build) in _COMMANDS.items():
        build(sub.add_parser(name, help=summary))
    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """The namespace of argv, parsed by its subcommand's parser alone
    when argv[0] names one (it sets ``cmd`` itself), else by the full
    parser; both give the same namespaces, usage errors and help.  The
    cache key is a subcommand or ``None``, so it holds at most 7 parsers."""
    cmd = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _build_parser(cmd)
    return parser.parse_args(argv if cmd is None else argv[1:])


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        payload, code = run(args.cmd, args)
        if args.fmt == "tsv":
            print(_render_tsv(args.cmd, payload))
        else:
            print(_render_json({"schema": SCHEMA, **payload}))
        return code
    except BrokenPipeError:
        return 1
    except Exception as exc:  # structured errors on stderr, exit 1
        error = {
            "schema": SCHEMA,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if isinstance(exc, ParseError):
            error["error"]["position"] = exc.position
        print(_render_json(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
