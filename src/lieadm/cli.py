"""Command-line workbench.

Subcommands: basis, verify, chain, check, algebra, search. Every command
prints either an aligned text table (default) or a JSON document
(--format json) carrying the same fields. Exit codes: 0 all checks
verified or held, 1 at least one violation (witness printed), 2 usage,
schema, or resource errors, or stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import WorkbenchError
from .exprs import BUILTIN_SOURCES, Identity, builtin
from .fdalg import FiniteDimAlgebra, audit
from .ideals import AlgebraSlice, check_theorem, lie_power_series, lower_central_chain, theorem_names
from .linalg import field_of_char
from .reports import canonical_json, with_schema
from .terms import format_multidegree, multidegrees
from .variety import builtin_variety, component_basis, custom_variety, variety_names, verify_identity

_DEFAULT_MAX_MONOMIALS = 200000


# ---------------------------------------------------------------------------
# argument plumbing


def _add_field(sp):
    sp.add_argument(
        "--char",
        type=int,
        default=0,
        metavar="P",
        help="field characteristic: 0 for rationals (default), or a prime below 2^64",
    )


def _add_format(sp):
    sp.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default table)",
    )


def _add_guard(sp):
    sp.add_argument(
        "--max-monomials",
        type=int,
        default=_DEFAULT_MAX_MONOMIALS,
        metavar="N",
        help="abort if a component's product space, the pairs of lower normal monomials "
        f"it is built from, has more than N columns (default {_DEFAULT_MAX_MONOMIALS})",
    )


def _add_variety(sp):
    sp.add_argument(
        "--variety",
        choices=variety_names(),
        help="builtin variety name",
    )
    sp.add_argument(
        "--identity",
        action="append",
        metavar="EXPR",
        help="define the variety inline by a multilinear identity (repeatable; replaces --variety)",
    )


def _variety_from(args):
    if getattr(args, "identity", None):
        return custom_variety(args.identity)
    if args.variety is None:
        raise WorkbenchError("need --variety or --identity")
    return builtin_variety(args.variety)


def _emit(doc: dict, fmt: str, renderer) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(doc))
    else:
        print(renderer(doc))


# ---------------------------------------------------------------------------
# table renderers (derived from the JSON documents, so both formats agree)


def _witness_lines(witness: Optional[dict], indent: str = "  ") -> list[str]:
    if not witness:
        return []
    lines = []
    for key in sorted(witness):
        value = witness[key]
        if isinstance(value, dict):
            body = ", ".join(f"{k} = {v}" for k, v in sorted(value.items()))
        else:
            body = value
        lines.append(f"{indent}{key}: {body}")
    return lines


def _table_basis(doc) -> str:
    lines = [
        f"basis: {doc['variety']} over {doc['field']}, "
        f"generators {doc['generators']}, degree cap {doc['degree']}"
    ]
    for row in doc["dims"]:
        lines.append(f"{row['multidegree']}: {row['dim']}")
    return "\n".join(lines)


def _table_verify(doc) -> str:
    lines = [
        f"verify: {doc['identity']} in {doc['variety']} over {doc['field']}",
        f"verdict: {'HOLDS' if doc['verdict'] == 'holds' else 'FAILS'}",
    ]
    lines += _witness_lines(doc["witness"])
    return "\n".join(lines)


def _table_chain(doc) -> str:
    prefix = "H" if doc["chain"] == "lower-central" else "A"
    lines = [
        f"chain {doc['chain']}: {doc['variety']} over {doc['field']}, "
        f"k={doc['generators']}, D={doc['degree_cap']}"
    ]
    for term in doc["terms"]:
        cells = " ".join(f"{d['multidegree']}:{d['dim']}" for d in term["dims"])
        lines.append(f"{prefix}_{term['index']}: dim {term['total_dim']}  {cells}".rstrip())
    if doc["vanishing_index"] is not None:
        lines.append(f"vanishing index: {doc['vanishing_index']} (class {doc['class']})")
    else:
        lines.append("vanishing index: none within cap")
    if doc["stabilized_at"] is not None:
        lines.append(f"stabilized at: {doc['stabilized_at']}")
    return "\n".join(lines)


def _table_check(doc) -> str:
    params = " ".join(f"{k}={v}" for k, v in sorted(doc["params"].items()))
    head = (
        f"check {doc['theorem']}: {doc['variety']} over {doc['field']}, "
        f"k={doc['generators']}, D={doc['degree_cap']}"
    )
    if params:
        head += f", {params}"
    lines = [head]
    for claim in doc["claims"]:
        lines.append(f"  {claim['verdict'].upper():<10} {claim['claim']}")
        lines += _witness_lines(claim.get("witness"), indent="    ")
    lines.append(f"status: {doc['status']}")
    if doc.get("note"):
        lines.append(f"note: {doc['note']}")
    return "\n".join(lines)


def _table_algebra(doc) -> str:
    lines = [f"algebra: field {doc['field']}, dim {doc['dim']}"]
    for name in sorted(doc["memberships"]):
        entry = doc["memberships"][name]
        if entry["member"]:
            lines.append(f"membership {name}: yes")
        else:
            lines.append(f"membership {name}: no")
            lines += _witness_lines(entry["witness"], indent="    ")
    lp, lc = doc["lie_powers"], doc["lower_central"]
    lines.append(
        f"lie powers dims: {' '.join(str(d) for d in lp['dims'])}"
        + (f" -> lie nilpotent, class {lp['class']}" if lp["class"] is not None else " -> not lie nilpotent")
    )
    lines.append(
        f"lower central dims: {' '.join(str(d) for d in lc['dims'])}"
        + (f" -> finite class {lc['class']}" if lc["class"] is not None else " -> class not finite")
    )
    idx = doc["commutator_ideal_index"]
    lines.append(f"commutator ideal nilpotency index: {idx if idx is not None else 'none found'}")
    for chk in doc["checks"]:
        lines.append(f"check {chk['name']}: {chk['status']} ({chk['detail']})")
    if doc.get("asserted_variety"):
        lines.append(
            f"asserted membership {doc['asserted_variety']}: "
            + ("yes" if doc["asserted_member"] else "NO")
        )
    lines.append(f"audit: {doc['status']}")
    return "\n".join(lines)


def _table_search(doc) -> str:
    lines = [f"search {doc['target']}"]
    for cell in doc["grid"]:
        lines.append(
            f"  k={cell['generators']} D={cell['degree_cap']}: {cell['status']}"
        )
        for claim in cell["claims"]:
            if claim["verdict"] != "verified" and claim.get("witness"):
                lines += _witness_lines(claim["witness"], indent="    ")
    lines.append(f"outcome: {doc['outcome']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_basis(args) -> int:
    field = field_of_char(args.char)
    variety = _variety_from(args)
    k, cap = args.gens, args.degree
    if k < 1 or cap < 1:
        raise WorkbenchError("--gens and --degree must be at least 1")
    if args.multilinear:
        if cap != k:
            raise WorkbenchError("--multilinear needs --degree equal to --gens")
        mus = [(1,) * k]
    else:
        mus = multidegrees((cap,) * k, cap)
    dims = []
    for mu in mus:
        comp = component_basis(variety, field, k, mu, args.max_monomials)
        dims.append({"multidegree": format_multidegree(mu), "dim": comp.quotient_dim})
    doc = with_schema(
        {
            "command": "basis",
            "variety": variety.name,
            "field": field.name,
            "generators": k,
            "degree": cap,
            "multilinear": bool(args.multilinear),
            "dims": dims,
        }
    )
    _emit(doc, args.format, _table_basis)
    return 0


def cmd_verify(args) -> int:
    field = field_of_char(args.char)
    variety = _variety_from(args)
    if (args.builtin is None) == (args.expr is None):
        raise WorkbenchError("need exactly one of --builtin or --expr")
    ident = builtin(args.builtin) if args.builtin else Identity("expr", args.expr)
    doc = verify_identity(variety, field, ident, cap=args.cap, max_monomials=args.max_monomials)
    doc = with_schema({"command": "verify", **doc})
    _emit(doc, args.format, _table_verify)
    return 1 if doc["verdict"] == "fails" else 0


def cmd_chain(args) -> int:
    field = field_of_char(args.char)
    variety = _variety_from(args)
    slice_ = AlgebraSlice(
        variety, field, args.gens, args.degree, max_monomials=args.max_monomials
    )
    n = args.terms if args.terms is not None else args.degree
    if args.series == "lower-central":
        report = lower_central_chain(slice_, n)
    else:
        report = lie_power_series(slice_, n)
    doc = with_schema({"command": "chain", **report.to_doc()})
    _emit(doc, args.format, _table_chain)
    return 0


def cmd_check(args) -> int:
    field = field_of_char(args.char)
    variety = _variety_from(args)
    slice_ = AlgebraSlice(
        variety, field, args.gens, args.degree, max_monomials=args.max_monomials
    )
    params = {
        name: getattr(args, name)
        for name in ("p", "q", "i", "j", "m")
        if getattr(args, name) is not None
    }
    report = check_theorem(slice_, args.theorem, params)
    doc = with_schema({"command": "check", **report.to_doc()})
    _emit(doc, args.format, _table_check)
    return 1 if report.status == "violated" else 0


def cmd_algebra(args) -> int:
    alg = FiniteDimAlgebra.load(args.file)
    report = audit(alg)
    asserted = None
    if args.variety:
        asserted = report["memberships"][args.variety]["member"]
    doc = with_schema(
        {
            "command": "algebra",
            **report,
            "asserted_variety": args.variety,
            "asserted_member": asserted,
        }
    )
    _emit(doc, args.format, _table_algebra)
    if report["status"] == "FAIL" or asserted is False:
        return 1
    return 0


def cmd_search(args) -> int:
    field = field_of_char(args.char)
    grid = []
    if args.target == "bicom-right-nilpotency":
        slice_ = AlgebraSlice(
            builtin_variety("bicommutative"),
            field,
            args.gens,
            args.degree,
            max_monomials=args.max_monomials,
        )
        report = check_theorem(slice_, "bicom_not_right_nilpotent")
        cell = report.to_doc()
        grid.append(cell)
        ok = report.status == "verified"
        outcome = "NOT-NILPOTENT-UP-TO-CAP" if ok else "COLLAPSED-WITHIN-CAP"
        exit_code = 0 if ok else 1
    else:
        if args.gens < 2 or args.degree < 4:
            raise WorkbenchError(
                f"the grid k = 2..{args.gens}, D = 4..{args.degree} is empty; "
                "assoc-even-even needs --gens at least 2 and --degree at least 4"
            )
        found = False
        for k in range(2, args.gens + 1):
            for cap in range(4, args.degree + 1):
                slice_ = AlgebraSlice(
                    builtin_variety("associative"),
                    field,
                    k,
                    cap,
                    max_monomials=args.max_monomials,
                )
                report = check_theorem(slice_, "assoc_even_even")
                grid.append(report.to_doc())
                if report.status == "violated":
                    found = True
                    break
            if found:
                break
        outcome = "VIOLATION-FOUND" if found else "INCONCLUSIVE-AT-CAP"
        exit_code = 1 if found else 0
    doc = with_schema(
        {
            "command": "search",
            "target": args.target,
            "field": field.name,
            "grid": grid,
            "outcome": outcome,
        }
    )
    _emit(doc, args.format, _table_search)
    return exit_code


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieadm",
        description="Exact workbench for relatively free algebras of "
        "Lie-admissible varieties and structure-constant algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("basis", help="quotient dimensions per multidegree")
    _add_variety(sp)
    sp.add_argument("--gens", type=int, required=True, metavar="K")
    sp.add_argument("--degree", type=int, required=True, metavar="D")
    sp.add_argument("--multilinear", action="store_true", help="only the all-ones multidegree")
    _add_field(sp)
    _add_format(sp)
    _add_guard(sp)
    sp.set_defaults(run=cmd_basis)

    sp = sub.add_parser("verify", help="check one identity against a variety")
    _add_variety(sp)
    sp.add_argument("--builtin", choices=tuple(sorted(BUILTIN_SOURCES)), help="catalog identity")
    sp.add_argument("--expr", metavar="EXPR", help="identity written in the expression syntax")
    sp.add_argument(
        "--cap",
        type=int,
        default=3,
        metavar="D",
        help="substitution degree cap for non-multilinear input (default 3)",
    )
    _add_field(sp)
    _add_format(sp)
    _add_guard(sp)
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("chain", help="lower central chain or Lie powers")
    _add_variety(sp)
    sp.add_argument("--gens", type=int, required=True, metavar="K")
    sp.add_argument("--degree", type=int, required=True, metavar="D")
    sp.add_argument(
        "--series",
        choices=("lower-central", "lie-powers"),
        default="lower-central",
    )
    sp.add_argument("--terms", type=int, metavar="N", help="number of terms (default: degree cap)")
    _add_field(sp)
    _add_format(sp)
    _add_guard(sp)
    sp.set_defaults(run=cmd_chain)

    sp = sub.add_parser("check", help="run one named structural check")
    sp.add_argument("--theorem", choices=theorem_names(), required=True)
    _add_variety(sp)
    sp.add_argument("--gens", type=int, required=True, metavar="K")
    sp.add_argument("--degree", type=int, required=True, metavar="D")
    for name in ("p", "q", "i", "j", "m"):
        sp.add_argument(f"--{name}", type=int, default=None)
    _add_field(sp)
    _add_format(sp)
    _add_guard(sp)
    sp.set_defaults(run=cmd_check)

    sp = sub.add_parser("algebra", help="audit a structure-constant algebra file")
    sp.add_argument("--file", required=True, metavar="PATH")
    sp.add_argument(
        "--variety",
        choices=variety_names(),
        help="additionally assert membership in this variety (exit 1 if it fails)",
    )
    _add_format(sp)
    sp.set_defaults(run=cmd_algebra)

    sp = sub.add_parser("search", help="exploratory searches over a degree grid")
    sp.add_argument(
        "--target",
        choices=("bicom-right-nilpotency", "assoc-even-even"),
        required=True,
    )
    sp.add_argument("--gens", type=int, required=True, metavar="K")
    sp.add_argument("--degree", type=int, required=True, metavar="D")
    _add_field(sp)
    _add_format(sp)
    _add_guard(sp)
    sp.set_defaults(run=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except WorkbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Point the descriptor
        # at devnull so the interpreter's final flush of the rest is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
