"""Command-line front end.

One verb per invocation; parameter arrays travel as JSON (stdin or --input),
results as canonically serialized JSON on stdout (or --output).  Exit status:
0 when every requested check passes, 1 when a check fails or a domain error
occurs, 2 on malformed input.  Errors are mirrored as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_parameter_array(args) -> ParameterArray:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return ParameterArray.from_json(json.loads(text))


def _read_bounded_array(args) -> ParameterArray:
    """The input array; BudgetExceeded when (d+1)^5 exceeds the work budget."""
    pa, budget = _read_parameter_array(args), env_budget()
    if (pa.d + 1) ** 5 > budget:
        raise BudgetExceeded(f"d = {pa.d}: (d+1)^5 = {(pa.d + 1) ** 5} exceeds budget {budget}")
    return pa


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_object(exc: Exception) -> str:
    return _dump_line({"error": {"type": type(exc).__name__, "message": str(exc)}})


def _cmd_verify(args) -> int:
    pa = _read_bounded_array(args)
    report = standard_identity_suite(build_system(pa))
    _write(args, _dump({"parameter_array": pa.to_json(), "report": report.to_json()}))
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_relatives(args) -> int:
    pa = _read_parameter_array(args)
    orbit = d4_orbit(pa)
    payload = {"relatives": {label: rel.to_json() for label, rel in orbit.items()}}
    _write(args, _dump(payload))
    return EXIT_OK


def _cmd_dualize(args) -> int:
    pa = _read_bounded_array(args)
    sys_ = certify(pa)
    self_dual = du.is_self_dual(pa)
    if args.require_self_dual and not self_dual:
        raise LeonardError("self-duality required but theta differs from theta*")
    anchors = du.choose_anchor_vectors(sys_)
    bundle = du.build_duality_bundle(sys_, anchors, require_self_dual=False)
    report = du.verify_duality_suite(sys_, bundle)
    report.merge(du.verify_geometry_suite(sys_, bundle))
    flags = {z: du.build_flag(sys_, z).to_json() for z in du.OMEGA}
    decomps = {}
    for z, w in du.DECOMPOSITION_PAIRS:
        dec = du.build_decomposition(sys_, z, w)
        decomps[dec.label] = dec.to_json()
    payload = {
        "parameter_array": pa.to_json(),
        "self_dual": self_dual,
        "bundle": bundle.to_json(pa.field),
        "flags": flags,
        "decompositions": decomps,
        "report": report.to_json(),
    }
    _write(args, _dump(payload))
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_bases(args) -> int:
    pa = _read_bounded_array(args)
    sys_ = certify(pa)
    anchors = du.choose_anchor_vectors(sys_)
    family = du.build_24_bases(sys_, anchors)
    report = du.verify_anchor_relations(sys_, anchors)
    report.merge(du.verify_basis_family(sys_, anchors, family))
    report.merge(du.verify_transition_relations(sys_, anchors))
    payload = {
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
    }
    _write(args, _dump(payload))
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_matrix_of_t(args) -> int:
    pa = _read_bounded_array(args)
    sys_ = certify(pa)
    if not du.is_self_dual(pa):
        raise LeonardError("matrix-of-t requires a self-dual system")
    anchors = du.choose_anchor_vectors(sys_)
    bundle = du.build_duality_bundle(sys_, anchors)
    rep, repA, repAs = du.basis_representations(sys_, bundle, args.basis, anchors)
    expected = du.expected_matrix_of_T(pa)
    report = VerificationReport()
    report.add("matrix_of_T_closed_form", rep == expected)
    expA, expAs = du.expected_pair_shapes(pa, args.basis)
    report.add("A_representation_shape", repA == expA)
    report.add("Astar_representation_shape", repAs == expAs)
    payload = {
        "basis": args.basis,
        "matrix": rep.to_json(),
        "expected": expected.to_json(),
        "report": report.to_json(),
    }
    _write(args, _dump(payload))
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _parse_field(text: str) -> Field:
    if text == "rational":
        return Field.rational()
    if text.startswith("prime:"):
        return Field.prime(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown field {text!r}; use 'rational' or 'prime:P'")


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        field=_parse_field(args.field),
        d=args.d,
        self_dual_only=args.self_dual,
        limit=args.limit,
        seed=args.seed,
        max_trials=args.max_trials,
    )
    try:
        found = run_search(cfg)
    except ExhaustedTrials as exc:
        _write(args, "".join(_dump_line(pa.to_json()) for pa in exc.found))
        sys.stderr.write(_error_object(exc))
        return EXIT_CHECK_FAILED
    _write(args, "".join(_dump_line(pa.to_json()) for pa in found))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument(
        "--basis",
        required=True,
        choices=list(du.FOUR_BASES),
    )
    p = sub.add_parser("search", help="emit certified arrays as JSON lines")
    p.add_argument("--field", required=True, help="'rational' or 'prime:P'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--self-dual", action="store_true")
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=10**6)
    p.add_argument("--output", help="write output here (default: stdout)")
    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "relatives": _cmd_relatives,
    "dualize": _cmd_dualize,
    "bases": _cmd_bases,
    "matrix-of-t": _cmd_matrix_of_t,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        sys.stderr.write(_error_object(exc))
        return EXIT_BAD_INPUT
    except NotALeonardPair as exc:
        payload = {"error": {"type": "NotALeonardPair", "message": str(exc)}}
        if exc.report is not None:
            payload["report"] = exc.report.to_json()
        sys.stderr.write(_dump_line(payload))
        return EXIT_CHECK_FAILED
    except LeonardError as exc:
        sys.stderr.write(_error_object(exc))
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
