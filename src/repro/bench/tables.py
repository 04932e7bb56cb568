"""Result tables: the rows/series the paper's evaluation reports.

Benchmark harnesses collect :class:`Series` objects (one per compared
system) and render them in the paper's style — configurations as
``images(nodes)`` columns, one row per system — so a benchmark run's
stdout is directly comparable to the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Series", "ResultTable", "config_label"]


def config_label(images: int, nodes: int) -> str:
    """The paper's ``N(M)`` axis label: N images on M nodes."""
    return f"{images}({nodes})"


@dataclass
class Series:
    """One system's measurements across the sweep, keyed by config label."""

    name: str
    values: Dict[str, float] = field(default_factory=dict)
    unit: str = "us"
    #: cells whose measurement raised, label → reason (rendered ``FAIL``;
    #: the rest of the sweep is unaffected)
    failures: Dict[str, str] = field(default_factory=dict)
    #: non-numeric cells (verdicts like ``exact``/``skipped``, or counts
    #: preformatted with separators); take precedence over ``values``
    texts: Dict[str, str] = field(default_factory=dict)

    def add(self, label: str, value: float) -> None:
        self.values[label] = value

    def add_text(self, label: str, text: str) -> None:
        self.texts[label] = text

    def mark_failed(self, label: str, reason: str) -> None:
        self.failures[label] = reason

    def ratio_to(self, other: "Series") -> Dict[str, float]:
        """Per-config ``other/self`` ratios (speedup of self over other
        when values are times)."""
        out = {}
        for label, mine in self.values.items():
            theirs = other.values.get(label)
            if theirs is not None and mine > 0:
                out[label] = theirs / mine
        return out


@dataclass
class ResultTable:
    """A titled set of series over a shared config axis."""

    title: str
    labels: List[str]
    series: List[Series] = field(default_factory=list)
    unit: str = "us"

    def add_series(self, series: Series) -> None:
        self.series.append(series)

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r}; have {[s.name for s in self.series]}")

    def render(self) -> str:
        """Fixed-width text table, one row per system."""
        name_width = max([len(s.name) for s in self.series] + [len("system")])
        col_width = max([len(lbl) for lbl in self.labels] + [10]) + 2
        lines = [self.title, ""]
        header = "system".ljust(name_width) + "".join(
            lbl.rjust(col_width) for lbl in self.labels
        ) + f"   [{self.unit}]"
        lines.append(header)
        lines.append("-" * len(header))
        for s in self.series:
            row = s.name.ljust(name_width)
            for lbl in self.labels:
                val = s.values.get(lbl)
                if lbl in s.texts:
                    row += s.texts[lbl].rjust(col_width)
                elif val is not None:
                    row += f"{val:{col_width}.2f}"
                elif lbl in s.failures:
                    row += "FAIL".rjust(col_width)
                else:
                    row += "-".rjust(col_width)
            lines.append(row)
        failed = [(s.name, lbl, reason) for s in self.series
                  for lbl, reason in sorted(s.failures.items())]
        if failed:
            lines.append("")
            lines.append("failed cells:")
            for name, lbl, reason in failed:
                first = reason.splitlines()[0] if reason else "failed"
                lines.append(f"  {name} @ {lbl}: {first}")
        return "\n".join(lines)

    def speedup_row(self, fast: str, slow: str) -> str:
        """A 'fast is X× better than slow' summary line per config."""
        ratios = self.get(fast).ratio_to(self.get(slow))
        cells = "  ".join(f"{lbl}:{r:5.1f}x" for lbl, r in ratios.items())
        return f"{slow} / {fast}:  {cells}"
