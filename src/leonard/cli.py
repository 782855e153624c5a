"""Command-line front end.

One verb per invocation; parameter arrays travel as JSON (stdin or --input),
results as canonically serialized JSON on stdout (or --output).  `main` runs
every verb as one pipeline: read the input, run the verb, write its result.
Exit status: 0 when every requested check passes; 2 on malformed input, that
is a command-line syntax error or an error while the input is read, or an
--output that cannot be written;
1 otherwise: a failing check, a domain error, the work budget or an internal
fault.  Errors are mirrored as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import duality as du
from .errors import BudgetExceeded, ExhaustedTrials, LeonardError, NotALeonardPair
from .fields import Field
from .report import VerificationReport
from .search import SearchConfig, env_budget, run_search
from .systems import (
    ParameterArray,
    build_system,
    certify,
    d4_orbit,
    standard_identity_suite,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: {False: "false", True: "true"}.get,
            type(None): lambda _: "null"}


def _dump(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline, for str keys and str, int, bool and None scalars:
    json's indented encoder is pure Python, so this one escapes with its C encoder and joins a one-type list at once."""
    def encode(obj, indent: str) -> str:
        kind = type(obj)
        if kind in _SCALARS:
            return _SCALARS[kind](obj)
        if kind not in (dict, list, tuple):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        inner, (opening, closing) = indent + "  ", "{}" if kind is dict else "[]"
        if kind is dict:
            items = (f"{encode_basestring_ascii(k)}: {encode(obj[k], inner)}" for k in sorted(obj))
        elif len(kinds := set(map(type, obj))) == 1 and kinds <= _SCALARS.keys():
            items = map(_SCALARS[kinds.pop()], obj)
        else:
            items = (encode(x, inner) for x in obj)
        return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}" if obj else opening + closing
    return encode(obj, "") + "\n"


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_field(text: str) -> Field:
    if text == "rational":
        return Field.rational()
    if text.startswith("prime:"):
        return Field.prime(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown field {text!r}; use 'rational' or 'prime:P'")


def _read(args):
    """The verb's input: for search a SearchConfig, else the parameter array of the JSON document
    on stdin or --input.  Every verb whose run reads the work budget reads it here first, and an
    array verb other than relatives raises BudgetExceeded when (d+1)^5 exceeds it."""
    if args.verb == "search":
        cfg = SearchConfig(field=_parse_field(args.field), d=args.d, self_dual_only=args.self_dual, limit=args.limit,
                           seed=args.seed, max_trials=args.max_trials)
        if not cfg.field.is_rational:  # enumeration over GF(p) reads it again
            env_budget()
        return cfg
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        obj = json.loads(text)
    except RecursionError as exc:  # deep nesting is malformed input, not an internal fault
        raise ValueError("input JSON is nested too deeply") from exc
    pa = ParameterArray.from_json(obj)
    if args.verb != "relatives":
        budget = env_budget()
        if (pa.d + 1) ** 5 > budget:
            raise BudgetExceeded(f"d = {pa.d}: (d+1)^5 = {(pa.d + 1) ** 5} exceeds budget {budget}")
    return pa


# --- one run per verb: (payload, verdict), the verdict a report, None, or the error of a partial result ---


def _verify(pa: ParameterArray, args):
    report = standard_identity_suite(build_system(pa))
    return {"parameter_array": pa.to_json(), "report": report.to_json()}, report


def _relatives(pa: ParameterArray, args):
    return {"relatives": {label: rel.to_json() for label, rel in d4_orbit(pa).items()}}, None


def _dualize(pa: ParameterArray, args):
    sys_ = certify(pa)
    self_dual = du.is_self_dual(pa)
    if args.require_self_dual and not self_dual:
        raise LeonardError("self-duality required but theta differs from theta*")
    anchors = du.choose_anchor_vectors(sys_)
    bundle = du.build_duality_bundle(sys_, anchors)
    report = du.verify_duality_suite(sys_, bundle)
    report.merge(du.verify_geometry_suite(sys_, bundle))
    decomps = (du.build_decomposition(sys_, z, w) for z, w in du.DECOMPOSITION_PAIRS)
    return {
        "parameter_array": pa.to_json(),
        "self_dual": self_dual,
        "bundle": bundle.to_json(pa.field),
        "flags": {z: du.build_flag(sys_, z).to_json() for z in du.OMEGA},
        "decompositions": {dec.label: dec.to_json() for dec in decomps},
        "report": report.to_json(),
    }, report


def _bases(pa: ParameterArray, args):
    sys_ = certify(pa)
    anchors = du.choose_anchor_vectors(sys_)
    family = du.build_24_bases(sys_, anchors)
    report = du.verify_anchor_relations(sys_, anchors)
    report.merge(du.verify_basis_family(sys_, anchors))
    report.merge(du.verify_transition_relations(sys_, anchors))
    return {
        "parameter_array": pa.to_json(),
        "anchors": {
            "v0": anchors.v0.to_json(),
            "vd": anchors.vd.to_json(),
            "v0_star": anchors.v0s.to_json(),
            "vd_star": anchors.vds.to_json(),
            "scalars": {k: pa.field.encode_scalar(v) for k, v in anchors.scalars().items()},
        },
        "bases": {key: [v.to_json() for v in seq] for key, seq in family.items()},
        "report": report.to_json(),
    }, report


def _matrix_of_t(pa: ParameterArray, args):
    sys_ = certify(pa)
    if not du.is_self_dual(pa):
        raise LeonardError("matrix-of-t requires a self-dual system")
    rep, repA, repAs = du.basis_representations(sys_, du.duality_operator(sys_), args.basis)
    expected, expA, expAs = du.expected_representations(sys_, args.basis)
    report = VerificationReport()
    report.add("matrix_of_T_closed_form", rep == expected)
    report.add("A_representation_shape", repA == expA)
    report.add("Astar_representation_shape", repAs == expAs)
    return {
        "basis": args.basis,
        "matrix": rep.to_json(),
        "expected": expected.to_json(),
        "report": report.to_json(),
    }, report


def _search(cfg: SearchConfig, args):
    """The arrays found, one JSON line each; on ExhaustedTrials the arrays found so far, and the error."""
    try:
        return [pa.to_json() for pa in run_search(cfg)], None
    except ExhaustedTrials as exc:
        return [pa.to_json() for pa in exc.found], exc


_RUNS = {
    "verify": _verify,
    "relatives": _relatives,
    "dualize": _dualize,
    "bases": _bases,
    "matrix-of-t": _matrix_of_t,
    "search": _search,
}


class _Parser(argparse.ArgumentParser):
    """Raises a syntax error as ValueError, so that main reports it as malformed input; subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leonard",
        description="Exact verification of Leonard systems and their self-duality operator.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_io(p):
        p.add_argument("--input", help="parameter-array JSON file (default: stdin)")
        p.add_argument("--output", help="write output here (default: stdout)")
        return p

    with_io(sub.add_parser("verify", help="certify an array and run the identity suite"))
    with_io(sub.add_parser("relatives", help="the 8 relatives keyed by reduced word"))
    p = with_io(sub.add_parser("dualize", help="build T and run the duality suite"))
    p.add_argument("--require-self-dual", action="store_true")
    with_io(sub.add_parser("bases", help="the 24 bases and transition relations"))
    p = with_io(sub.add_parser("matrix-of-t", help="the matrix representing T"))
    p.add_argument("--basis", required=True, choices=list(du.FOUR_BASES))
    p = sub.add_parser("search", help="emit certified arrays as JSON lines")
    p.add_argument("--field", required=True, help="'rational' or 'prime:P'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--self-dual", action="store_true")
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=10**6)
    p.add_argument("--output", help="write output here (default: stdout)")
    return parser


def _fail(exc: Exception, code: int) -> int:
    """exc as one JSON error line on stderr, with the failing report a NotALeonardPair carries; returns code."""
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, NotALeonardPair) and exc.report is not None:
        payload["report"] = exc.report.to_json()
    sys.stderr.write(_dump_line(payload))
    return code


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        try:
            args = build_parser().parse_args(argv)
            value = _read(args)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:  # malformed input
            return _fail(exc, EXIT_BAD_INPUT)
        if limit:  # Python >= 3.10.7: every input integer is capped, computed ones may be longer
            sys.set_int_max_str_digits(0)
        result, verdict = _RUNS[args.verb](value, args)
        text = "".join(map(_dump_line, result)) if args.verb == "search" else _dump(result)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if isinstance(verdict, LeonardError):
            return _fail(verdict, EXIT_CHECK_FAILED)
        return EXIT_OK if verdict is None or verdict.all_pass else EXIT_CHECK_FAILED
    except OSError as exc:  # --output cannot be written
        return _fail(exc, EXIT_BAD_INPUT)
    except Exception as exc:  # a domain error, the work budget or an internal fault: never a traceback
        return _fail(exc, EXIT_CHECK_FAILED)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
