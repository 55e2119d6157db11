"""Execution-coverage instrumentation for the numerical interpreter.

The paper's pipeline compiles CESM with Intel codecov, runs a few time steps,
and uses the resulting per-line execution data to discard the large part of
the compiled source that is never executed before building/slicing the
digraph (§4.3, the 820 → ~230 module reduction).  :class:`CoverageTrace` is
the runtime half of that step: the interpreter records every executed
statement as a ``(filename, line) -> count`` entry, and ``repro.slicing``
filters backward slices against the executed lines.

Traces compare by value (bit-identical runs produce equal traces), merge
across runs (ensemble members), and reduce to the per-file executed line
sets the slice filter needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["CoverageTrace"]


@dataclass
class CoverageTrace:
    """Per-(file, line) execution counts of one (or several merged) runs."""

    counts: dict[tuple[str, int], int] = field(default_factory=dict)

    # ------------------------------------------------------------ recording
    def record(self, filename: str, line: int, hits: int = 1) -> None:
        """Count one execution of ``filename:line`` (no-op for line <= 0)."""
        if line <= 0:
            return
        key = (filename, line)
        self.counts[key] = self.counts.get(key, 0) + hits

    # -------------------------------------------------------------- queries
    def hits(self, filename: str, line: int) -> int:
        return self.counts.get((filename, line), 0)

    def files(self) -> list[str]:
        """Sorted names of every file with at least one executed line."""
        return sorted({filename for filename, _ in self.counts})

    def lines(self, filename: str) -> dict[int, int]:
        """``line -> count`` for one file."""
        return {
            line: count
            for (name, line), count in self.counts.items()
            if name == filename
        }

    def executed_lines(self, filename: str) -> list[int]:
        """Sorted executed line numbers of one file."""
        return sorted(self.lines(filename))

    @property
    def total_statements(self) -> int:
        """Total statement executions recorded (sum of all counts)."""
        return sum(self.counts.values())

    @property
    def total_lines(self) -> int:
        """Number of distinct (file, line) pairs executed at least once."""
        return len(self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.counts)

    # ------------------------------------------------------------ combining
    def merged(self, *others: "CoverageTrace") -> "CoverageTrace":
        """A new trace with the counts of ``self`` and every other trace."""
        out = CoverageTrace(dict(self.counts))
        for other in others:
            for (filename, line), count in other.counts.items():
                out.record(filename, line, count)
        return out

    def restricted_to(self, filenames: Iterable[str]) -> "CoverageTrace":
        """A new trace keeping only entries for the given files."""
        keep = set(filenames)
        return CoverageTrace(
            {key: count for key, count in self.counts.items() if key[0] in keep}
        )
