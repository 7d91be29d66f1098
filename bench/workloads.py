"""The benchmark's three workloads: seeded inputs, the operations run on
them, and the reference each operation's output is checked against.

Every operation runs two ways: as a ``qfs`` command on files (``argv``), and
through the library on in-memory states (``lib``).  Both results are read
into the same observation dict, which ``check`` compares with a reference
built by :mod:`oracle` rather than by qfractal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
import qfractal as qf


@dataclass
class Op:
    name: str
    kind: str  # how an output is read: a key of VIEWS
    argv: list[str]
    lib: Callable[[dict], object]
    check: oracle.Check
    reference: dict  # a correct observation, for the oracle self-check
    output: Path | None = None  # file the command writes
    exit_code: int = 0


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict  # in-memory states and rules for the library pass


# -- reading results into observations


def _header(state: qf.SparseState) -> dict[str, str]:
    head = oracle.header(state.local_dim, state.num_qudits)
    head["phase_order"] = str(state.phase_order)
    tag = state.provenance
    if tag is not None:
        head.update({key: str(value) for key, value in vars(tag).items() if value is not None})
    return head


def state_view(state: qf.SparseState) -> dict:
    records = {}
    for key, amp in state.entries.items():
        mag = ",".join(f"{base}:{exp}" for base, exp in amp.mag_exponents) or "1"
        records["".join(map(str, key))] = (amp.phase_index, mag)
    return {"header": _header(state), "records": records}


def _fields(stdout: str, sep: str = " ") -> dict[str, str]:
    return dict(line.split(sep, 1) for line in stdout.splitlines())


def _verify_cli(stdout: str, output: Path | None) -> dict:
    lines = _fields(stdout, ": ")
    s = lines.pop("extracted_s")
    valid = lines.pop("valid")
    checks = {name: text.split(" ", 1)[0] == "pass" for name, text in lines.items()}
    return {"checks": checks, "extracted_s": None if s == "-" else int(s), "valid": valid == "yes"}


def _verify_lib(report: qf.StepReport) -> dict:
    return {
        "checks": {check.name: check.passed for check in report.checks},
        "extracted_s": report.extracted_s,
        "valid": report.valid,
    }


_HEADER_KEYS = ("local_dim", "num_qudits", "phase_order", "family", "c", "s", "n")


def _analyze_cli(stdout: str, output: Path | None) -> dict:
    lines = _fields(stdout)
    ranks = {int(key[13:-1]): int(value) for key, value in lines.items() if key.startswith("schmidt_rank[")}
    return {
        "header": {key: lines[key] for key in _HEADER_KEYS if key in lines},
        "norm2": lines["norm2"],
        "support": int(lines["support"]),
        "uniform": lines["uniform_probability"],
        "ranks": ranks,
    }


def analyze(state: qf.SparseState, cuts: list[int]) -> dict:
    """The library calls behind ``qfs analyze``, as an observation."""
    probabilities = {amp.squared_magnitude() for amp in state.entries.values()}
    return {
        "header": _header(state),
        "norm2": str(state.norm_squared()),
        "support": len(state.entries),
        "uniform": str(probabilities.pop()) if len(probabilities) == 1 else "none",
        "ranks": dict(qf.product_cut_report(state, cuts)) if cuts else {},
    }


def _scaling_cli(stdout: str, output: Path | None) -> dict:
    lines = _fields(stdout)
    return {
        "p": tuple(value for key, value in lines.items() if key.startswith("p[")),
        "ratio": tuple(value for key, value in lines.items() if key.startswith("ratio[")),
    }


def _scaling_lib(report: qf.ScalingReport) -> dict:
    return {"p": tuple(map(str, report.probabilities)), "ratio": tuple(map(str, report.ratios))}


def _lucheck_cli(stdout: str, output: Path | None) -> dict:
    lines = _fields(stdout, ": ")
    if lines["equivalent"] == "no":
        return {"gates": None, "fidelity": None}
    return {"gates": tuple(lines["gates"].split(" ")), "fidelity": float(lines["fidelity"])}


def _lucheck_lib(match: qf.LocalCliffordMatch | None) -> dict:
    if match is None:
        return {"gates": None, "fidelity": None}
    return {"gates": match.words, "fidelity": match.fidelity}


def _decode_cli(stdout: str, output: Path) -> dict:
    lines = _fields(stdout, ": ")
    corrections = () if lines["corrections"] == "none" else tuple(
        tuple(int(v) for v in pair.strip("()").split(",")) for pair in lines["corrections"].split(" ")
    )
    state = oracle.from_text(output.read_text())
    return {"corrections": corrections, "success": lines["success"] == "yes", "state": state}


def _decode_lib(report: qf.DecodeReport) -> dict:
    return {"corrections": report.corrections, "success": report.success, "state": state_view(report.decoded)}


VIEWS: dict[str, tuple[Callable[[str, Path | None], dict], Callable[[object], dict]]] = {
    "state": (lambda stdout, output: oracle.from_text(output.read_text()), state_view),
    "verify": (_verify_cli, _verify_lib),
    "analyze": (_analyze_cli, lambda observed: observed),
    "scaling": (_scaling_cli, _scaling_lib),
    "lucheck": (_lucheck_cli, _lucheck_lib),
    "decode": (_decode_cli, _decode_lib),
    "roundtrip": (lambda stdout, output: {"ok": stdout == "roundtrip: ok\n"}, lambda ok: {"ok": ok}),
}

VERIFY_CHECKS = (
    "coefficient_count",
    "coefficient_magnitudes",
    "predecessor_present",
    "slot_orthonormality",
    "reconstruction",
    "norm",
)


def _valid_step(s: int) -> dict:
    return {"checks": dict.fromkeys(VERIFY_CHECKS, True), "extracted_s": s, "valid": True}


def _analysis(state: dict, ranks: dict[int, int]) -> dict:
    support = len(state["records"])
    return {"header": state["header"], "norm2": "1", "support": support, "uniform": f"1/{support}", "ranks": ranks}


def _op(name, kind, argv, lib, reference, check=None, **extra) -> Op:
    return Op(name, kind, argv, lib, check or oracle.equal_to(reference), reference, **extra)


def _keep(ctx: dict, name: str, value: object) -> object:
    """Hold a library result for the operations that read it next."""
    ctx.setdefault("out", {})[name] = value
    return value


def _write(path: Path, state: dict) -> str:
    path.write_text(oracle.to_text(state))
    return str(path)


# -- workloads


def recursion(rng: random.Random, work: Path) -> Workload:
    """Exact arithmetic on long keys: cantor n=8 (6561 entries x 256 qutrits)
    and the Bell-gem step 4 -> 5, the one step whose sums collide."""
    phases = tuple(rng.randrange(oracle.PHASE_ORDER) for _ in range(3))
    sign = rng.choice((1, -1))
    scales = [_write(work / f"c{n}.qfs", oracle.cantor(n, phases)) for n in range(9)]
    rule = work / "cantor.rule"
    slots = [f"slot 1 {j} predecessor" for j in range(3)] + [f"slot 2 {j} basis:{str(j) * 128}" for j in range(3)]
    coeffs = [f"coeff {j},{j} {phases[j]}" for j in range(3)]
    rule.write_text("\n".join(["qfs-rule/1", "c 2", "s 3", "phase_order 8", "", *slots, *coeffs]) + "\n")
    # The gem rule: slot index 0 is the plus sibling from a file, 1 the predecessor.
    plus4 = _write(work / "gem4plus.qfs", oracle.gem(4, 1))
    minus4 = _write(work / "gem4minus.qfs", oracle.gem(4, -1))
    gem5 = oracle.gem(5, sign)
    next5 = _write(work / "gem5.qfs", gem5)
    gem_rule = work / "gem.rule"
    slots = [f"slot {k} 0 file:gem4plus.qfs" for k in (1, 2)] + [f"slot {k} 1 predecessor" for k in (1, 2)]
    coeffs = ["coeff 0,1 0", f"coeff 1,0 {0 if sign == 1 else oracle.HALF_TURN}"]
    gem_rule.write_text("\n".join(["qfs-rule/1", "c 2", "s 2", "phase_order 8", "", *slots, *coeffs]) + "\n")

    cantor8 = oracle.cantor(8)
    inputs = {
        "scales": [qf.load_state(path) for path in scales],
        "cantor_rule": qf.load_rule(rule),
        "gem4minus": qf.load_state(minus4),
        "gem5": qf.load_state(next5),
        "gem_rule": qf.load_rule(gem_rule),
    }
    gen8, gen5 = work / "gen_cantor8.qfs", work / "gen_gem5.qfs"
    scaling = {"p": tuple(f"1/{3**n}" if n else "1" for n in range(9)), "ratio": ("3",) * 8}
    ops = [
        _op("gen-cantor-8", "state", ["gen", "--family", "cantor", "--n", "8", "-o", str(gen8)],
            lambda ctx: _keep(ctx, "cantor8", qf.build_cantor(8)),
            cantor8, output=gen8),
        _op("verify-cantor-7-8", "verify", ["verify-step", "--prev", scales[7], "--next", scales[8], "--rule", str(rule)],
            lambda ctx: qf.verify_scale_step(ctx["scales"][7], ctx["scales"][8], ctx["cantor_rule"]),
            _valid_step(3)),
        _op("analyze-cantor-8", "analyze", ["analyze", "--state", str(gen8)],
            lambda ctx: analyze(ctx["out"]["cantor8"], []), _analysis(cantor8, {})),
        _op("scaling-cantor-0-8", "scaling", ["scaling", "--states", *scales],
            lambda ctx: qf.probability_scaling_ratio(ctx["scales"]), scaling),
        _op("gen-bellgem-5", "state", ["gen", "--family", "bellgem", "--n", "5", "--sign", "+-"[sign < 0], "-o", str(gen5)],
            lambda ctx: qf.build_gem_sequence(5)[sign < 0], gem5, output=gen5),
        _op("verify-bellgem-4-5", "verify", ["verify-step", "--prev", minus4, "--next", next5, "--rule", str(gem_rule)],
            lambda ctx: qf.verify_scale_step(ctx["gem4minus"], ctx["gem5"], ctx["gem_rule"]),
            _valid_step(2)),
    ]
    return Workload(ops, inputs)


def entangle(rng: random.Random, work: Path) -> Workload:
    """The numeric path on short keys: Schmidt ranks at every allowed cut and
    the local-Clifford search (hit at once, hit mid-scan, full miss)."""
    sign = rng.choice((1, -1))
    cluster14 = oracle.cluster(14, z_mask=rng.randrange(2**14), provenance=False)
    gem4 = oracle.gem(4, sign)
    cantor3 = oracle.cantor(3, tuple(rng.randrange(oracle.PHASE_ORDER) for _ in range(3)))
    x_mask, z_mask = rng.randrange(1, 2**5), rng.randrange(1, 2**5)
    a = oracle.cluster(5)
    flipped = oracle.cluster(5, x_mask, z_mask, provenance=False)
    zero = oracle.basis("00000")
    paths = {name: _write(work / f"{name}.qfs", state) for name, state in
             [("cluster14", cluster14), ("gem4", gem4), ("cantor3", cantor3), ("a", a), ("flipped", flipped), ("zero", zero)]}
    inputs = {name: qf.load_state(path) for name, path in paths.items()}

    def analyze_op(name, state, cuts, ranks):
        argv = ["analyze", "--state", paths[name]] + [arg for cut in cuts for arg in ("--cut", str(cut))]
        return _op(f"analyze-{name}", "analyze", argv, lambda ctx: analyze(ctx[name], cuts), _analysis(state, ranks))

    def lucheck_op(name, reference, check, exit_code=0):
        return _op(f"lucheck-{name}", "lucheck", ["lucheck", "--a", paths["a"], "--b", paths[name]],
                   lambda ctx: qf.lu_equivalent_by_local_clifford(ctx["a"], ctx[name]), reference, check,
                   exit_code=exit_code)

    flip_words = tuple(
        (oracle.PAULI_X if x_mask >> (4 - q) & 1 else "") + (oracle.PAULI_Z if z_mask >> (4 - q) & 1 else "") or "I"
        for q in range(5)
    )
    cluster_cuts, gem_cuts, cantor_cuts = list(range(2, 13)), list(range(4, 13)), list(range(1, 8))
    ops = [
        analyze_op("cluster14", cluster14, cluster_cuts, dict.fromkeys(cluster_cuts, 2)),
        analyze_op("gem4", gem4, gem_cuts, oracle.schmidt_ranks(gem4, gem_cuts)),
        analyze_op("cantor3", cantor3, cantor_cuts, oracle.schmidt_ranks(cantor3, cantor_cuts)),
        lucheck_op("a", {"gates": ("I",) * 5, "fidelity": 1.0}, oracle.local_clifford_hit(a, a)),
        lucheck_op("flipped", {"gates": flip_words, "fidelity": 1.0}, oracle.local_clifford_hit(a, flipped)),
        lucheck_op("zero", {"gates": None, "fidelity": None}, None, exit_code=1),
    ]
    return Workload(ops, inputs)


def codes(rng: random.Random, work: Path) -> Workload:
    """Digit-by-digit rewriting: bitflip:3 on a 12-qubit cluster state
    (4096 entries x 324 qubits) with seeded correctable errors, and the
    Bell-pair code on |011>."""
    blocks = sorted(rng.sample(range(108), 3))  # innermost triples that get one flip each
    positions = [3 * block + rng.randrange(3) for block in blocks]
    errors = ",".join(map(str, positions))
    cluster12 = oracle.cluster(12)
    encoded = oracle.repeat_digits(cluster12, 27)
    injected = oracle.flip_bits(encoded, positions)
    decoded = {"header": oracle.header(2, 12), "records": cluster12["records"]}
    register = oracle.basis("011")
    bell = [oracle.from_dense(oracle.bell_encode(oracle.dense(register), 3, levels), 3 * 2**levels) for levels in (1, 2)]
    source, start = _write(work / "cluster12.qfs", cluster12), _write(work / "s011.qfs", register)
    inputs = {"cluster12": qf.load_state(source), "s011": qf.load_state(start)}
    spec = qf.CodeSpec(qf.CodeKind.BIT_FLIP, 3)
    out = {name: work / f"{name}.qfs" for name in ("gen", "enc", "err", "dec", "bell1", "bell2")}

    def bell_op(levels: int) -> Op:
        return _op(f"encode-bellpair-{levels}", "state",
                   ["code", "encode", "--spec", f"bellpair:{levels}", "--state", start, "-o", str(out[f"bell{levels}"])],
                   lambda ctx: qf.encode(ctx["s011"], qf.CodeSpec(qf.CodeKind.BELL_PAIR, levels)),
                   bell[levels - 1], oracle.dense_state(bell[levels - 1]), output=out[f"bell{levels}"])

    ops = [
        _op("gen-cluster-12", "state", ["gen", "--family", "cluster", "--qubits", "12", "-o", str(out["gen"])],
            lambda ctx: qf.build_cluster(12), cluster12, output=out["gen"]),
        _op("encode-bitflip-3", "state", ["code", "encode", "--spec", "bitflip:3", "--state", source, "-o", str(out["enc"])],
            lambda ctx: _keep(ctx, "enc", qf.encode(ctx["cluster12"], spec)), encoded, output=out["enc"]),
        _op("inject-errors", "state",
            ["code", "inject", "--spec", "bitflip:3", "--state", str(out["enc"]), "--errors", errors, "-o", str(out["err"])],
            lambda ctx: _keep(ctx, "err", qf.inject_errors(ctx["out"]["enc"], positions)), injected, output=out["err"]),
        _op("decode-bitflip-3", "decode",
            ["code", "decode", "--spec", "bitflip:3", "--state", str(out["err"]), "-o", str(out["dec"])],
            lambda ctx: qf.decode_majority(ctx["out"]["err"], spec),
            {"corrections": tuple((1, block) for block in blocks), "success": True, "state": decoded},
            output=out["dec"]),
        _op("roundtrip-bitflip-3", "roundtrip", ["code", "roundtrip", "--spec", "bitflip:3", "--state", source, "--errors", errors],
            lambda ctx: qf.roundtrip_check(ctx["cluster12"], spec, positions), {"ok": True}),
        bell_op(1),
        # Known defect: superpose folds colliding terms pairwise, so this
        # encode raises AmplitudeOverflowError although the sum is in the ring.
        bell_op(2),
    ]
    return Workload(ops, inputs)


WORKLOADS = {"recursion": recursion, "entangle": entangle, "codes": codes}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs for ``seed`` under ``work`` and load them."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)


def observe_cli(op: Op, stdout: str) -> dict:
    return VIEWS[op.kind][0](stdout, op.output)


def observe_lib(op: Op, result: object) -> dict:
    return VIEWS[op.kind][1](result)

