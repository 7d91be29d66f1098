"""Command-line front end.

Every subcommand is deterministic: the same argv and input files produce the
same stdout and output files.  Exit codes: 0 success, 1 operational failure
(invalid step, no equivalence, failed roundtrip), 2 usage or parse errors,
3 guard violations or exhausted memory.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analyze import (
    fractal_dimension,
    lu_equivalent_by_local_clifford,
    probability_scaling_ratio,
    product_cut_report,
    verify_scale_step,
)
from .codes import (
    CodeKind,
    CodeSpec,
    decode_majority,
    encode,
    inject_errors,
    roundtrip_check,
    splits_into_blocks,
)
from .construct import (
    build_bitflip_state,
    build_cantor,
    build_cluster,
    build_gem_sequence,
    build_representative,
)
from .errors import CodeError, FormatError, GuardExceededError, QfsError
from .fileio import header_lines, load_rule, load_state, render_support, save_state, write_text_atomic


def _parse_code_spec(text: str) -> CodeSpec:
    name, sep, levels_text = text.partition(":")
    if not sep:
        raise ValueError(f"code spec must look like bitflip:LEVELS, got {text!r}")
    try:
        kind = CodeKind(name)
    except ValueError:
        raise ValueError(f"unknown code family {name!r}") from None
    try:
        return CodeSpec(kind, int(levels_text))
    except ValueError:
        raise ValueError(f"levels is not an integer: {levels_text!r}") from None
    except CodeError as exc:
        raise ValueError(str(exc)) from None


def _parse_error_positions(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    positions = []
    for part in text.split(","):
        try:
            positions.append(int(part))
        except ValueError:
            raise ValueError(f"error position is not an integer: {part!r}") from None
    return tuple(positions)


def _require(args: argparse.Namespace, flags: list[str]) -> None:
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"--family {args.family} requires " + ", ".join(f"--{m}" for m in missing))


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "representative":
        _require(args, ["c", "s", "n"])
        state = build_representative(args.c, args.s, args.n, local_dim=max(2, args.s))
    elif args.family == "cantor":
        _require(args, ["n"])
        state = build_cantor(args.n)
    elif args.family == "bellgem":
        _require(args, ["n", "sign"])
        plus, minus = build_gem_sequence(args.n)
        state = plus if args.sign == "+" else minus
    elif args.family == "bitflip":
        _require(args, ["n"])
        state = build_bitflip_state(args.n, args.logical)
    else:
        _require(args, ["qubits"])
        state = build_cluster(args.qubits)
    save_state(state, args.output)
    return 0


def _cmd_dim(args: argparse.Namespace) -> int:
    print(f"{fractal_dimension(args.c, args.s):.12f}")
    return 0


def _cmd_verify_step(args: argparse.Namespace) -> int:
    prev = load_state(args.prev)
    next_state = load_state(args.next)
    rule = load_rule(args.rule)
    report = verify_scale_step(prev, next_state, rule)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{check.name}: {status} ({check.detail})")
    print(f"extracted_s: {report.extracted_s if report.extracted_s is not None else '-'}")
    print(f"valid: {'yes' if report.valid else 'no'}")
    return 0 if report.valid else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    print("\n".join(header_lines(state)))
    print(f"norm2 {state.norm_squared()}")
    print(f"support {len(state.entries)}")
    probabilities = {amp.squared_magnitude() for amp in set(state.entries.values())}
    if len(probabilities) == 1:
        print(f"uniform_probability {probabilities.pop()}")
    else:
        print("uniform_probability none")
    if args.cut:
        for cut, rank in product_cut_report(state, args.cut):
            print(f"schmidt_rank[{cut}] {rank}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    states = [load_state(path) for path in args.states]
    report = probability_scaling_ratio(states)
    for k, p in enumerate(report.probabilities):
        print(f"p[{k}] {p}")
    for k, ratio in enumerate(report.ratios):
        print(f"ratio[{k}] {ratio}")
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    spec = _parse_code_spec(args.spec)
    state = load_state(args.state)
    errors = _parse_error_positions(args.errors)
    if args.action in ("encode", "inject") and args.output is None:
        raise ValueError(f"code {args.action} requires -o")
    # Both act on an encoded register, so both refuse one of partial blocks.
    if args.action in ("inject", "decode") and not splits_into_blocks(state.num_qudits, spec):
        raise ValueError(f"{state.num_qudits} qubits do not split into {spec.block_arity}**{spec.levels} blocks")
    if args.action == "encode":
        save_state(encode(state, spec), args.output)
        return 0
    if args.action == "inject":
        save_state(inject_errors(state, errors), args.output)
        return 0
    if args.action == "decode":
        report = decode_majority(state, spec)
        if report.corrections:
            print("corrections: " + " ".join(f"({lvl},{blk})" for lvl, blk in report.corrections))
        else:
            print("corrections: none")
        print(f"success: {'yes' if report.success else 'no'}")
        if args.output is not None:
            save_state(report.decoded, args.output)
        return 0
    ok = roundtrip_check(state, spec, errors)
    print(f"roundtrip: {'ok' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_lucheck(args: argparse.Namespace) -> int:
    a = load_state(args.a)
    b = load_state(args.b)
    match = lu_equivalent_by_local_clifford(a, b)
    if match is None:
        print("equivalent: no")
        return 1
    print("equivalent: yes")
    print("gates: " + " ".join(match.words))
    print(f"fidelity: {match.fidelity:.12f}")
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    states = [load_state(path) for path in args.state]
    if args.svg is not None:
        write_text_atomic(args.svg, render_support(states, "svg"))
        return 0
    print(render_support(states, "ascii"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfs", description="Construct and analyze self-similar qudit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a state family member")
    gen.add_argument("--family", required=True, choices=["representative", "cantor", "bellgem", "bitflip", "cluster"])
    gen.add_argument("--c", type=int)
    gen.add_argument("--s", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--sign", choices=["+", "-"])
    gen.add_argument("--logical", type=int, default=0, choices=[0, 1])
    gen.add_argument("--qubits", type=int)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    dim = sub.add_parser("dim", help="print the self-similarity dimension")
    dim.add_argument("--c", type=int, required=True)
    dim.add_argument("--s", type=int, required=True)
    dim.set_defaults(func=_cmd_dim)

    verify = sub.add_parser("verify-step", help="check one recursion step against a rule")
    verify.add_argument("--prev", required=True)
    verify.add_argument("--next", required=True)
    verify.add_argument("--rule", required=True)
    verify.set_defaults(func=_cmd_verify_step)

    analyze = sub.add_parser("analyze", help="print summary measurements of a state")
    analyze.add_argument("--state", required=True)
    analyze.add_argument("--cut", type=int, action="append", default=[])
    analyze.set_defaults(func=_cmd_analyze)

    scaling = sub.add_parser("scaling", help="per-scale probabilities and decay ratios")
    scaling.add_argument("--states", nargs="+", required=True)
    scaling.set_defaults(func=_cmd_scaling)

    code = sub.add_parser("code", help="concatenated-code operations")
    code.add_argument("action", choices=["encode", "inject", "decode", "roundtrip"])
    code.add_argument("--spec", required=True, help="bitflip:LEVELS or bellpair:LEVELS")
    code.add_argument("--state", required=True)
    code.add_argument("--errors", default="", help="comma-separated qubit positions")
    code.add_argument("-o", "--output")
    code.set_defaults(func=_cmd_code)

    lucheck = sub.add_parser("lucheck", help="search for a per-qubit Clifford equivalence")
    lucheck.add_argument("--a", required=True)
    lucheck.add_argument("--b", required=True)
    lucheck.set_defaults(func=_cmd_lucheck)

    viz = sub.add_parser("viz", help="render supported basis intervals")
    viz.add_argument("--state", action="append", required=True)
    group = viz.add_mutually_exclusive_group()
    group.add_argument("--ascii", action="store_true")
    group.add_argument("--svg")
    viz.set_defaults(func=_cmd_viz)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except QfsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())
