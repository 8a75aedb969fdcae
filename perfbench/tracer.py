"""Spans and counts around lieverify's layers, installed from outside.

The program is not changed: ``Tracer.install`` replaces each layer's
public function with a wrapper on every module attribute that refers to
it (``cli`` imports the ``check_*`` functions by name, ``derivations``
imports ``bracket_symbols``, ``tpa`` imports ``bracket``), and
``uninstall`` puts the originals back.

Layer functions get a span each: name, start, end, parent span and
operation id, kept in memory until the run ends.  Hot leaf functions
(the bracket memo, ``Poly.evaluate``, ``Element`` construction,
``tpa.product``) are called hundreds of thousands of times per operation,
so they are only counted.
"""
from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional

# module -> functions that get a span
SPANNED = {
    "cli": ("run", "build_parser", "load_algebra", "_dump_json"),
    "catalog": ("builtin",),
    "dsl": ("parse_algebra", "render_algebra"),
    "core": ("check_skew", "check_grading", "check_jacobi"),
    "derivations": ("solve_derivations", "solve_degree", "assemble_system", "derivation_residual"),
    "linalg": ("sparse_nullspace",),
    "tpa": ("theorem_product", "check_tpa", "check_commutative", "check_associative",
            "check_compatibility"),
}
# module -> functions that are only counted
COUNTED = {
    "core": ("bracket_symbols", "bracket"),
    "tpa": ("product",),
}
# (module, class, method, counter name): methods that are only counted
COUNTED_METHODS = (
    ("core", "Element", "__init__", "core.Element.new"),
    ("poly", "Poly", "evaluate", "poly.Poly.evaluate.calls"),
)

SETUP_OP = -1  # operation id of spans recorded during set-up


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    op: int


def lieverify_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "lieverify" or name.startswith("lieverify.")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.sizes: dict[int, dict[str, int]] = {}  # doubled degree -> system sizes
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._degree: Optional[int] = None
        self._patches: list[tuple[Any, str, Any]] = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_memo(self, fn: Callable) -> Callable:
        counts = self.counts

        def bracket_symbols(spec, x, y):
            counts["core.bracket_symbols.calls"] += 1
            if (x, y) not in spec._cache:
                counts["core.bracket_symbols.misses"] += 1
            return fn(spec, x, y)

        bracket_symbols.__wrapped__ = fn
        return bracket_symbols

    # -- hooks that read sizes off results, outside the timed span ---------

    def _after_build_parser(self, args, parser) -> None:
        parser.parse_args = self._spanned("argparse.parse_args", parser.parse_args)

    def _after_assemble(self, args, result) -> None:
        g2 = args[1]
        unknowns, rows = result
        nnz = sum(len(row) for row in rows)
        self.counts["derivations.assemble_system.rows"] += len(rows)
        self.counts["derivations.assemble_system.cols"] += len(unknowns)
        self.counts["derivations.assemble_system.nnz"] += nnz
        self._degree = g2
        if g2 not in self.sizes:  # sizes repeat exactly: record them once per degree
            distinct = len({frozenset(row.items()) for row in rows})
            self.sizes[g2] = {"rows": len(rows), "distinct_rows": distinct,
                              "cols": len(unknowns), "nnz": nnz}

    def _after_nullspace(self, args, kernel) -> None:
        ncols = args[1]
        self.counts["linalg.kernel_dim"] += len(kernel)
        self.counts["linalg.rank"] += ncols - len(kernel)
        record = self.sizes.get(self._degree)
        if record is not None:
            record.setdefault("rank", ncols - len(kernel))
            record.setdefault("kernel_dim", len(kernel))

    def _after_solve_degree(self, args, result) -> None:
        record = self.sizes.get(result.degree2)
        if record is not None:
            record.setdefault("interior_dim", result.interior_dim)

    def _after_jacobi(self, args, report) -> None:
        self.counts["core.check_jacobi.tuples"] += report.pairs_checked

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for mod in lieverify_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        after = {
            "build_parser": self._after_build_parser,
            "assemble_system": self._after_assemble,
            "sparse_nullspace": self._after_nullspace,
            "solve_degree": self._after_solve_degree,
            "check_jacobi": self._after_jacobi,
        }
        for modname, names in SPANNED.items():
            mod = importlib.import_module(f"lieverify.{modname}")
            for name in names:
                fn = getattr(mod, name)
                self._replace_everywhere(fn, self._spanned(f"{modname}.{name}", fn, after.get(name)))
        for modname, names in COUNTED.items():
            mod = importlib.import_module(f"lieverify.{modname}")
            for name in names:
                fn = getattr(mod, name)
                if name == "bracket_symbols":
                    wrapper = self._counted_memo(fn)
                else:
                    wrapper = self._counted(f"{modname}.{name}.calls", fn)
                self._replace_everywhere(fn, wrapper)
        for modname, clsname, method, counter in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"lieverify.{modname}"), clsname)
            fn = vars(cls)[method]
            self._patches.append((cls, method, fn))
            setattr(cls, method, self._counted(counter, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-operation summaries -----------------------------------------

    def begin_op(self, op: int) -> int:
        """Start operation ``op``; returns the index of its first span."""
        self.op = op
        self.counts.clear()
        return len(self.spans)

    def summarize(self, first_span: int, wall: float) -> dict:
        """Inclusive and self seconds and the number of calls per span name,
        plus the counts, for the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        counts = dict(self.counts)
        for index, span in enumerate(spans, start=first_span):
            duration = span.end - span.start
            inclusive[span.name] += duration
            self_time[span.name] += duration - child_time[index]
            counts[f"{span.name}.calls"] = counts.get(f"{span.name}.calls", 0) + 1
        return {"wall": wall, "inclusive": dict(inclusive), "self": dict(self_time),
                "counts": counts}
