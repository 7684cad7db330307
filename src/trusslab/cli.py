"""Command-line front end: verify, convert, enumerate, decompose, report.

JSON goes to stdout (stable key order, so byte-identical for fixed input and
version); a short human summary goes to stderr.  Exit codes: 0 success/pass,
1 semantic failure (axiom or hypothesis), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from . import enumeration, oracles, substructure, transforms
from .catalog import builtin_names, resolve_group
from .errors import (
    DotNotDistributive,
    GroupValidationError,
    InputError,
    SemanticError,
    TrussLabError,
)
from .groups import SUBGROUP_ORDER_CAP
from .structures import (
    DITRUSS,
    INTERCHANGE,
    SKEW_TRUSS,
    WEAK_TRUSS,
    AlgebraObject,
    check,
    ditruss_consequence_report,
    lambda_family,
    normalize_kind,
    skew_truss_consequence_report,
    split_key,
    structure_from_json,
    structure_to_json,
    verify,
)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2


def _emit(payload: dict, output: str | None) -> None:
    _emit_chunks([json.dumps(payload, indent=2, sort_keys=True)], output)


def _emit_chunks(chunks: Iterable[str], output: str | None) -> None:
    """Write the pieces of a JSON text, then a newline, to the file output
    or to stdout."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # ValueError covers bad JSON and bad UTF-8; RecursionError, deep nesting
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_structure(path: str) -> AlgebraObject:
    return structure_from_json(_read_json(path))


def cmd_verify(args) -> int:
    """verify, and report: verify plus the lambda family and the sigma flags."""
    obj = _load_structure(args.input)
    result = check(obj)
    report = args.command == "report"
    payload = result.to_json()
    payload["group"] = obj.group.name
    payload["order"] = obj.group.order
    if result.ok:
        payload["consequences"] = _consequences(obj)
        # every kind with a sigma has a circ or a dot, so a lambda family
        if report and obj.sigma is not None:
            lam = lambda_family(obj)
            payload["lambda"] = {
                "constant": lam.constant,
                "all_endomorphisms": lam.all_endomorphisms,
                "maps": [list(m.images) for m in lam.maps],
            }
            flags = obj.sigma_flags()
            payload["sigma_flags"] = {
                "endomorphism": flags.endomorphism,
                "idempotent": flags.idempotent,
                "fixes_zero": flags.fixes_zero,
            }
    _emit(payload, args.output)
    if report:
        _note(f"report for {obj.kind} on {obj.group.name}")
    else:
        _note(f"{obj.kind} on {obj.group.name}: {'PASS' if result.ok else 'FAIL'}")
    return EXIT_OK if result.ok else EXIT_SEMANTIC


def _consequences(obj: AlgebraObject) -> list[dict]:
    if obj.kind == SKEW_TRUSS:
        return [skew_truss_consequence_report(obj).to_json()]
    if obj.kind == DITRUSS:
        try:
            return [ditruss_consequence_report(obj).to_json()]
        except DotNotDistributive:
            pass
    return []


def cmd_convert(args) -> int:
    obj = _load_structure(args.input)
    source = normalize_kind(args.source) if args.source else obj.kind
    if source != obj.kind:
        raise InputError(f"input object has kind {obj.kind}, --from says {source}")
    verify(obj)
    target = normalize_kind(args.target)
    converted, record = transforms.convert(obj, target)
    payload = {
        "result": structure_to_json(converted),
        "record": record.to_json(),
    }
    _emit(payload, args.output)
    _note(f"{obj.kind} -> {converted.kind} via {record.forward_name}")
    return EXIT_OK


# per kind: its enumerator, by name, and its raw-table oracle; the name is
# looked up in the enumeration module at each call, so that a wrapper
# installed there (bench/workloads.py traces the enumerators) is the one run
_ENUMERATORS = {
    SKEW_TRUSS: ("enumerate_skew_trusses", oracles.raw_skew_truss_search),
    WEAK_TRUSS: ("enumerate_weak_trusses", oracles.raw_weak_truss_search),
    DITRUSS: ("enumerate_constant_lambda_ditrusses", oracles.raw_constant_lambda_ditruss_search),
    INTERCHANGE: ("enumerate_interchange", oracles.raw_interchange_search),
}


def cmd_enumerate(args) -> int:
    if args.cap is not None and args.cap < 1:
        raise InputError(f"--cap must be at least 1, got {args.cap}")
    group = resolve_group(_read_json(args.group) if args.group.endswith(".json") else args.group)
    kind = normalize_kind(args.kind)
    name, raw_search = _ENUMERATORS[kind]
    enumerate_kind = getattr(enumeration, name)
    if args.oracle:
        oracle = raw_search(group)
        result = enumerate_kind(group)
        param_keys = tuple(split_key(kind, group.order, key) for key in result.keys)
        payload = {
            "group": group.name,
            "kind": kind,
            "oracle_count": oracle.count,
            "parametrized_count": result.total_count,
            "agreement": oracle.keys == param_keys,
        }
        _emit(payload, args.output)
        _note(f"oracle on {group.name}/{kind}: {oracle.count} structures")
        return EXIT_OK if payload["agreement"] else EXIT_SEMANTIC

    # only the skew and weak searches have an order cap
    takes_cap = args.cap is not None and kind in (SKEW_TRUSS, WEAK_TRUSS)
    result = enumerate_kind(group, **({"cap": args.cap} if takes_cap else {}))
    _emit_chunks(result.json_chunks(up_to_iso=args.up_to_iso), args.output)
    summary = (
        f"{group.name}/{kind}: {result.total_count} structures, "
        f"{result.iso_class_count} up to isomorphism"
    )
    counters = result.counters
    if "first_pairs" in counters:
        summary += (
            f"; first pairs searched {counters['first_pairs_searched']} of "
            f"{counters['first_pairs']}, leaves visited {counters['leaves_visited']}, "
            f"kept {counters['leaves_kept']}"
        )
    else:
        summary += f"; admissible pairs {counters['admissible_pairs']} of {counters['pairs']}"
    _note(f"{summary}, |Aut G| = {counters['automorphisms']}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    obj = _load_structure(args.input)
    verify(obj)
    t0, tc = substructure.zero_symmetric_constant_decomposition(obj)
    payload: dict = {"T0": list(t0), "Tc": list(tc)}
    if obj.kind == SKEW_TRUSS:
        ideal_list = substructure.ideals(obj)
        payload["ideals"] = [list(i) for i in ideal_list]
        payload["congruence_count"] = len(substructure.congruences(obj))
    _emit(payload, args.output)
    _note(f"T0 size {len(t0)}, Tc size {len(tc)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusslab",
        description=(
            "Verify, convert, enumerate and decompose finite skew trusses, "
            "ditrusses, weak trusses and interchange near-rings."
        ),
        epilog=(
            f"Built-in groups: {', '.join(builtin_names())}. "
            f"Subgroup scans are capped at order {SUBGROUP_ORDER_CAP}, "
            f"congruence scans at order {substructure.CONGRUENCE_ORDER_CAP}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = ["skew-truss", "ditruss", "weak-truss", "interchange"]

    p = sub.add_parser("verify", help="check the defining axioms of a structure file")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="move a structure between kinds")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="source", choices=kinds + ["interchange-nr"])
    p.add_argument("--to", dest="target", required=True, choices=kinds + ["interchange-nr"])
    p.add_argument("--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("enumerate", help="classify all structures of a kind on a group")
    p.add_argument("--group", required=True, help="built-in name or a group JSON file")
    p.add_argument("--kind", required=True, choices=kinds + ["interchange-nr"])
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="raw brute-force over full tables (order <= 3) and agreement check",
    )
    p.add_argument(
        "--cap",
        type=int,
        help=f"order cap of the skew/weak search, never below the default "
        f"{enumeration.ORDER_CAP_DEFAULT}; interchange and ditruss ignore --cap",
    )
    p.add_argument("--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="0-symmetric/constant split plus ideals")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("report", help="axioms plus derived-structure reports")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except SemanticError as exc:
            _emit({"error": type(exc).__name__, "message": str(exc)}, getattr(args, "output", None))
            _note(f"failure: {exc}")
            return EXIT_SEMANTIC
    except (InputError, GroupValidationError) as exc:
        _note(f"input error: {exc}")
        return EXIT_INPUT
    except BrokenPipeError as exc:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so that the interpreter's last flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _note(f"input error: cannot write stdout: {exc}")
        return EXIT_INPUT
    except TrussLabError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
