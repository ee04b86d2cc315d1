"""In-memory spans around the public entry points of each trideriv layer.

The wrappers live here, not in the package: installing them replaces the
class attributes and every module-level binding, under any name, of the
wrapped functions (``cli.py`` and ``oracle.py`` import several of them by
name), and uninstalling restores the originals.  A binding this misses
shows up as a layer with no spans, which the benchmark treats as an error.  A span records its name, its parent
span, start and end times and a work count; self time is the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable


def _scalar_ops(args: tuple, result: Any) -> int:
    n = args[0].n
    return n * (n + 1) * (n + 2) // 6


def _entries(args: tuple, result: Any) -> int:
    n = args[0]
    return n * (n + 1) // 2


def _found(args: tuple, result: Any) -> int:
    return result is not None


def _eager(fn: Callable) -> Callable:
    """Run a generator function to completion inside its span."""

    @functools.wraps(fn)
    def eager(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return eager


# (span name, module, attribute path, work count or None, wrap generator eagerly)
TARGETS = (
    ("matrices.mul", "trideriv.matrices", "UTMatrix.__mul__", _scalar_ops, False),
    ("matrices.add", "trideriv.matrices", "UTMatrix.__add__", None, False),
    ("matrices.sample", "trideriv.matrices", "random_matrix", _entries, False),
    ("matrices.text", "trideriv.matrices", "parse_matrix", None, False),
    ("matrices.text", "trideriv.matrices", "format_matrix", None, False),
    ("derivations.mask_apply", "trideriv.derivations", "MaskDerivation.__call__", None, False),
    ("derivations.pattern_apply", "trideriv.derivations", "ZeroPattern.__call__", None, False),
    ("derivations.leibniz_check", "trideriv.derivations", "leibniz_check", _found, False),
    ("derivations.linearity_check", "trideriv.derivations", "linearity_check", _found, False),
    ("derivations.compare", "trideriv.derivations", "first_difference", None, False),
    ("derivations.decompose", "trideriv.derivations", "decompose", None, False),
    ("shifts.lift_apply", "trideriv.shifts", "HereditaryShift.__call__", None, False),
    ("semirings.check_axioms", "trideriv.semirings", "check_axioms", None, False),
    ("oracle.enumerate", "trideriv.oracle", "enumerate_matrices", None, True),
    ("oracle.exhaustive", "trideriv.oracle", "exhaustive_leibniz_witness", None, False),
    ("oracle.classify", "trideriv.oracle", "brute_force_classify", None, False),
    ("cli", "trideriv.cli", "main", None, False),
)


class Stats:
    """Per-span-name totals: calls, self seconds and work count."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.exhaustive_pairs = 0


class Tracer:
    """Installs the span wrappers and folds finished spans into :class:`Stats`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if count is not None:
                record[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "trideriv"]
        for name, module, path, count, eager in TARGETS:
            owner: Any = sys.modules[module]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, _eager(original) if eager else original, count)
            sites = [(owner, attr)] if owner_path else []
            sites += [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for site, key in sites:
                setattr(site, key, wrapped)
                self._restore.append((site, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def fold(self, stats: Stats) -> None:
        """Add the finished spans to ``stats`` and forget them."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, parent, start, end, work in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, parent, start, end, work) in enumerate(spans):
            stats.calls[name] += 1
            stats.self_s[name] += end - start - child_s[index]
            stats.work[name] += work
            in_oracle = parent >= 0 and spans[parent][0] == "oracle.exhaustive"
            if name == "derivations.leibniz_check" and in_oracle:
                stats.exhaustive_pairs += 1
        spans.clear()
