"""Per-layer spans for the traced benchmark run, installed from outside the
program by wrapping qfractal's public functions and ``SparseState`` methods.

A name bound with ``from .x import y`` is wrapped in every qfractal module
that holds it, so calls between modules are spanned too.  Self time is a
span's duration minus the time covered by the spans it encloses.  The program
is single-threaded apart from BLAS and nothing in it queues, so there is no
wait time to record.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

import qfractal.cli  # noqa: F401  (loaded so its names can be wrapped)
from qfractal.states import SparseState

Counter = Callable[["Tracer", tuple, object, "BaseException | None"], None]


def _construct(t: Tracer, args: tuple, result: object, error: BaseException | None) -> None:
    entries = args[0].entries
    t.add("states.construct.entries", len(entries))
    if entries:
        largest = (len(entries), sys.getsizeof(next(iter(entries))))
        if largest > (t.peaks["states.max_entries"], t.peaks["states.key_bytes"]):
            t.peaks["states.max_entries"], t.peaks["states.key_bytes"] = largest


def _superpose(t: Tracer, args: tuple, result: object, error: BaseException | None) -> None:
    t.add("states.superpose.entries_in", sum(len(state.entries) for _, state in args[0]))
    if result is not None:
        t.add("states.superpose.entries_out", len(result.entries))


def _schmidt_rank(t: Tracer, args: tuple, result: object, error: BaseException | None) -> None:
    state = args[0]
    if error is None:
        t.add("states.schmidt_rank.matrix_cells", state.local_dim**state.num_qudits)


def _lu_prefixes(t: Tracer, args: tuple, result: object, error: BaseException | None) -> None:
    """Prefixes the scan visits: all 24**(Q-2) on a miss, up to the hit's."""
    qubits = args[0].num_qudits
    if error is not None or qubits < 2:
        return
    if result is None:
        t.add("analyze.lu_equivalent.prefixes", 24 ** (qubits - 2))
        return
    rank = 0
    for index in result.indices[:-2]:
        rank = rank * 24 + index
    t.add("analyze.lu_equivalent.prefixes", rank + 1)


def _count(metric: str, measure: Callable[[tuple, object], float]) -> Counter:
    def counter(t: Tracer, args: tuple, result: object, error: BaseException | None) -> None:
        if error is None:
            t.add(metric, measure(args, result))

    return counter


def _count_errors(metric: str) -> Counter:
    def counter(t: Tracer, args: tuple, result: object, error: BaseException | None) -> None:
        t.add(metric, error is not None)

    return counter


# (span name, owner, attribute, counter); an owner string names a module.
SPANS: list[tuple[str, object, str, Counter | None]] = [
    ("cli.main", "qfractal.cli", "main", _count("cli.commands", lambda args, result: 1)),
    ("fileio.parse_state", "qfractal.fileio", "parse_state",
     _count("fileio.parse_state.mb", lambda args, result: len(args[0]) / 1e6)),
    ("fileio.serialize_state", "qfractal.fileio", "serialize_state",
     _count("fileio.serialize_state.mb", lambda args, result: len(result) / 1e6)),
    ("fileio.write_text_atomic", "qfractal.fileio", "write_text_atomic", None),
    ("fileio.parse_rule", "qfractal.fileio", "parse_rule", None),
    ("states.construct", SparseState, "__post_init__", _construct),
    ("states.tensor", SparseState, "tensor",
     _count("states.tensor.entries_out", lambda args, result: len(result.entries))),
    ("states.eq", SparseState, "__eq__", None),
    ("states.norm_squared", SparseState, "norm_squared", None),
    ("states.superpose", "qfractal.states", "superpose", _superpose),
    ("states.apply_bit_flip", SparseState, "apply_bit_flip", None),
    ("states.schmidt_rank", SparseState, "schmidt_rank", _schmidt_rank),
    ("states.to_dense", SparseState, "to_dense", None),
    ("construct.apply_scale_rule", "qfractal.construct", "apply_scale_rule", None),
    ("construct.check_rule_against", "qfractal.construct", "check_rule_against", None),
    ("construct.build_representative", "qfractal.construct", "build_representative", None),
    ("construct.build_gem_sequence", "qfractal.construct", "build_gem_sequence", None),
    ("construct.build_cluster", "qfractal.construct", "build_cluster", None),
    ("analyze.verify_scale_step", "qfractal.analyze", "verify_scale_step",
     _count("analyze.verify_scale_step.checks_failed",
            lambda args, report: sum(not check.passed for check in report.checks))),
    ("analyze.probability_scaling_ratio", "qfractal.analyze", "probability_scaling_ratio", None),
    ("analyze.product_cut_report", "qfractal.analyze", "product_cut_report", None),
    ("analyze.lu_equivalent", "qfractal.analyze", "lu_equivalent_by_local_clifford", _lu_prefixes),
    ("codes.encode", "qfractal.codes", "encode", _count_errors("codes.encode.failed")),
    ("codes.inject_errors", "qfractal.codes", "inject_errors", None),
    ("codes.decode_majority", "qfractal.codes", "decode_majority", None),
    ("codes.roundtrip_check", "qfractal.codes", "roundtrip_check", None),
]


class Tracer:
    """Accumulates span counts and self times while installed."""

    def __init__(self) -> None:
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self._open: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def add(self, metric: str, amount: float) -> None:
        self.totals[metric] += amount

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        def spanned(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += duration
                else:
                    self.top_level_s += duration
                self.totals[f"{name}.calls"] += 1
                self.totals[f"{name}.self_s"] += duration - children[0]
                if counter is not None:
                    counter(self, args, result, error)

        return spanned

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "qfractal" or key.startswith("qfractal.")]
        for name, owner, attr, counter in SPANS:
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], attr)
                holders = [m for m in modules if getattr(m, attr, None) is original]
            else:
                original = owner.__dict__[attr]
                holders = [owner]
            wrapped = self._wrap(name, original, counter)
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

