"""Command line: cell computation, verification suites, RS tools, tau.

Exit codes: 0 success / all checks pass, 1 a verification failed or a
computation raised (a table failing validation, such as one whose p is
not a prime below pcanonical._PRIME_LIMIT, an infinite or too large
group, a KL coefficient beyond the packed kernel), 2 usage or input error
(argparse errors, both options of --type/--cartan or of
--table/--fixture, a malformed Cartan matrix, type label, table file or
permutation, a group of rank above 9, whose elements no digit string
names, a --cap below 1).  A file that cannot be read or written, such as
a directory given as --out, --cartan or --table, exits 1.  A reader that
closes the output pipe early (`| head`) gets exit code 1 and one error
line, not a traceback.

Each input has one form.  A group is a type label (--type) or a Cartan
matrix (--cartan, inline JSON or a file holding it).  The prime of cells
is the table's (--table or --fixture), or 0 when no table is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .cells import compute_cells
from .coxeter import CoxeterSystem, GroupTooLargeError, cartan_matrix_of_type
from .hecke import compute_kl_table
from .pcanonical import (
    PCanValidationError,
    identity_table,
    load_fixture,
    load_table,
)
from .stars import tau_partition, tau_tilde_partition
from .typea import parse_one_line, rs_correspondence
from . import verify as verify_mod


class SystemExit2(Exception):
    """Usage error, mapped to exit code 2."""


@contextmanager
def _reading_input():
    """A ValueError raised while reading the command line's input is a usage
    error; PCanValidationError, a table that parses but fails its checks,
    is not."""
    try:
        yield
    except PCanValidationError:
        raise
    except ValueError as e:
        raise SystemExit2(str(e)) from e


def _build_system(args) -> CoxeterSystem:
    with _reading_input():
        if args.type is not None:
            _check_rank(cartan_matrix_of_type(args.type))
            return CoxeterSystem.from_type(args.type, cap=args.cap)
        # os.path.exists is False, not an error, for text that cannot name a
        # file, such as an inline matrix over 255 bytes
        cartan = json.loads(Path(args.cartan).read_text()
                            if os.path.exists(args.cartan) else args.cartan)
        _check_rank(cartan)
        return CoxeterSystem.from_cartan(cartan, cap=args.cap)


def _check_rank(cartan) -> None:
    """Elements print as words in the digits 1-9, one per generator, so a
    matrix of rank above 9 is refused before its group is enumerated.  A
    matrix that CoxeterSystem rejects is left to it."""
    if isinstance(cartan, list) and len(cartan) > 9:
        raise SystemExit2(f"rank {len(cartan)} is above 9: elements print "
                          "as words in the digits 1-9, one per generator")


def _build_table(args, system):
    """The table of --table or --fixture, which fixes p, or the p = 0
    table when neither is given."""
    if args.table is not None:
        with _reading_input():
            return load_table(args.table, system)
    if args.fixture is not None:
        return load_fixture(args.fixture, system)
    return identity_table(system)


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _word_list(digits: list[str], elements: tuple[int, ...]) -> str:
    """The words of the elements, "e" for the identity, shortest first and
    then in lexicographic order, joined by commas."""
    return ", ".join(sorted((digits[w] or "e" for w in elements),
                            key=lambda d: (len(d), d)))


def cmd_cells(args) -> int:
    system = _build_system(args)
    table = _build_table(args, system)
    kl = compute_kl_table(system)
    partition = compute_cells(table, kl, args.side)
    if args.format == "json":
        _emit(json.dumps(partition.to_json_obj(system), indent=2), args)
    elif args.format == "dot":
        _emit(partition.to_dot(system), args)
    else:
        lines = [f"{len(partition.cells)} {args.side} cells at p = "
                 f"{table.prime}:"]
        digits = system.digit_strings()
        for i, cell in enumerate(partition.cells):
            lines.append(f"  [{i}] {{{_word_list(digits, cell)}}}")
        lines.append("Hasse edges: " + ", ".join(
            f"{i}->{j}" for (i, j) in sorted(partition.hasse_edges)))
        _emit("\n".join(lines), args)
    return 0


def cmd_verify(args) -> int:
    reports = verify_mod.run_suite(args.suite, typea_n=args.n)
    failures = 0
    for rep in reports:
        status = "pass" if rep.ok else "FAIL"
        print(f"[{status}] {rep.name} ({rep.checked} checks)")
        if not rep.ok:
            failures += 1
            for v in rep.violations[:5]:
                print(f"        {v}")
    print(f"{len(reports) - failures}/{len(reports)} checks passed")
    return 0 if failures == 0 else 1


def cmd_rs(args) -> int:
    with _reading_input():
        perm = parse_one_line(args.permutation)
    p, q = rs_correspondence(perm)
    if args.format == "json":
        print(json.dumps({"P": [list(r) for r in p], "Q": [list(r) for r in q]}))
    else:
        print("P =", [list(r) for r in p])
        print("Q =", [list(r) for r in q])
    return 0


def cmd_tau(args) -> int:
    system = _build_system(args)
    part = tau_tilde_partition(system) if args.tilde else tau_partition(system)
    kind = "tau-tilde" if args.tilde else "tau"
    digits = system.digit_strings()
    if args.format == "json":
        obj = {
            "kind": kind,
            "stabilized_at": part.stabilized_at,
            "classes": [sorted(digits[w] or "e" for w in c)
                        for c in part.classes],
        }
        _emit(json.dumps(obj, indent=2), args)
    else:
        lines = [f"{len(part.classes)} {kind} classes "
                 f"(stable after {part.stabilized_at} rounds):"]
        for c in part.classes:
            lines.append(f"  {{{_word_list(digits, c)}}}")
        _emit("\n".join(lines), args)
    return 0


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _cap(text: str) -> int:
    """The --cap of the group closure: a positive number of elements."""
    n = _int_arg(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(
            f"{n} is not positive: no group fits under it")
    return n


def _typea_n(text: str) -> int:
    """The --n of verify: the typea suite checks S_3 to S_n, so n >= 3."""
    n = _int_arg(text)
    if n < 3:
        raise argparse.ArgumentTypeError(
            f"{n} is below 3: the typea suite would check no symmetric group")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcells",
        description="Exact cell computations for Hecke algebras of finite "
                    "crystallographic Coxeter groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--type", help="type label: An, Bn, Cn, Dn, "
                                          "E6-E8, F4 or G2, e.g. A3, C3, F4")
        group.add_argument("--cartan", help="Cartan matrix as a JSON list of "
                                            "lists (inline or file)")
        p.add_argument("--cap", type=_cap, default=10**6,
                       help="element cap for the group closure")

    p = sub.add_parser("cells", help="compute a cell partition",
                       description="Cells at the prime of the table given by "
                                   "--table or --fixture, or at p = 0 (the "
                                   "KL basis) without one.")
    add_group_args(p)
    table = p.add_mutually_exclusive_group()
    table.add_argument("--fixture", help="name of a shipped table (e.g. c3_p2)")
    table.add_argument("--table", help="path to a table JSON file")
    p.add_argument("--side", default="right",
                   choices=["left", "right", "two-sided"])
    p.add_argument("--format", default="text", choices=["text", "json", "dot"])
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite",
                   choices=[*verify_mod.SUITES, "all"])
    p.add_argument("--n", type=_typea_n, default=5,
                   help="largest symmetric group S_n for the typea suite "
                        "(n >= 3)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rs", help="Robinson-Schensted symbols of a permutation")
    p.add_argument("permutation", help='one-line notation, e.g. "312"')
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_rs)

    p = sub.add_parser("tau", help="generalized tau invariant classes")
    add_group_args(p)
    p.add_argument("--tilde", action="store_true",
                   help="use the star-image variant over all finite bonds")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(fn=cmd_tau)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout stays unwritable: point it at devnull so the flush at exit
        # has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed before all output was written",
              file=sys.stderr)
        return 1
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, GroupTooLargeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        pass
    # outside the handler, so the traceback and the computation's frames
    # are freed before printing
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
