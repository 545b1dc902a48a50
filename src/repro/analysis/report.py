"""Plain-text rendering of the reproduction's tables and figures.

Benches and examples print through these helpers so every experiment
emits the same rows/series the paper reports, in a diff-friendly form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["render_table", "render_histogram", "render_boxplot_row", "format_pct"]


def format_pct(value: float, digits: int = 1) -> str:
    return f"{100 * value:.{digits}f}%"


def render_table(rows: Sequence[dict], *, title: str | None = None) -> str:
    """Render a list of same-keyed dicts as an aligned ASCII table."""
    if not rows:
        return f"{title or 'table'}: (empty)\n"
    headers = list(rows[0].keys())
    columns = {h: [str(row.get(h, "")) for row in rows] for h in headers}
    widths = {h: max(len(h), *(len(v) for v in columns[h])) for h in headers}

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[h]) for h in headers))
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append("  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))
    return "\n".join(lines) + "\n"


def render_histogram(
    values: np.ndarray,
    edges: np.ndarray,
    *,
    title: str = "",
    width: int = 50,
    label=lambda e: f"{e:8.2f}",
) -> str:
    """Render a histogram/density as horizontal ASCII bars."""
    import numpy as np

    lines = [title] if title else []
    peak = float(np.max(values)) if len(values) and np.max(values) > 0 else 1.0
    for index, value in enumerate(values):
        bar = "#" * int(width * value / peak)
        center = (edges[index] + edges[index + 1]) / 2
        lines.append(f"{label(center)} | {bar}")
    return "\n".join(lines) + "\n"


def render_boxplot_row(label: str, values: Sequence[float]) -> dict:
    """Five-number summary row for Fig 2-style box plots."""
    if not values:
        return {"config": label, "min": "-", "q1": "-", "median": "-", "q3": "-", "p95": "-"}
    import numpy as np

    array = np.asarray(values, dtype=float)
    return {
        "config": label,
        "min": f"{np.min(array):.2f}",
        "q1": f"{np.percentile(array, 25):.2f}",
        "median": f"{np.percentile(array, 50):.2f}",
        "q3": f"{np.percentile(array, 75):.2f}",
        "p95": f"{np.percentile(array, 95):.2f}",
    }
