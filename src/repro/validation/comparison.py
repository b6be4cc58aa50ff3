"""Table 3: capability comparison against prior targeted-ad detectors.

The table is qualitative; coding it lets ``repro compare`` print the
paper's matrix with each eyeWnder property cross-linked to the module
that implements it.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Cell symbols, as in the paper's legend.
NEGATIVE = "†"
POSITIVE = "✓"
NEUTRAL = "•"
UNSPECIFIED = "*"
BLANK = ""

#: Systems compared, in the paper's column order. Citation keys follow
#: the paper's bibliography numbers.
SYSTEMS = (
    "AdFisher [20]", "Adscape [7]", "AdReveal [40]", "Carrascosa [16]",
    "XRay [38]", "Sunlight [39]", "MyAdChoices [46]", "eyeWnder",
)

#: Row -> per-system cells (same order as SYSTEMS).
COMPARISON_MATRIX: Dict[str, Tuple[str, ...]] = {
    "Fake impressions": (NEGATIVE, NEGATIVE, NEGATIVE, NEGATIVE, NEGATIVE,
                         NEGATIVE, NEGATIVE, BLANK),
    "Click-fraud": (NEGATIVE, NEGATIVE, BLANK, NEGATIVE, BLANK, BLANK,
                    UNSPECIFIED, BLANK),
    "Privacy-preserving": (BLANK, BLANK, BLANK, BLANK, BLANK, BLANK, BLANK,
                           POSITIVE),
    "Real-users": (BLANK, BLANK, BLANK, BLANK, BLANK, BLANK, POSITIVE,
                   POSITIVE),
    "Personas": (NEUTRAL, NEUTRAL, NEUTRAL, NEUTRAL, NEUTRAL, NEUTRAL,
                 BLANK, BLANK),
    "Operates in real-time": (BLANK, BLANK, BLANK, BLANK, BLANK, BLANK,
                              POSITIVE, POSITIVE),
    "High scalability": (BLANK, BLANK, BLANK, BLANK, BLANK, BLANK,
                         POSITIVE, POSITIVE),
    "Operates offline": (NEGATIVE, NEGATIVE, NEGATIVE, NEGATIVE, NEGATIVE,
                         NEGATIVE, BLANK, BLANK),
    "Topic-based": (BLANK, NEUTRAL, NEUTRAL, NEUTRAL, BLANK, BLANK,
                    NEUTRAL, BLANK),
    "Correlation-based": (NEUTRAL, BLANK, BLANK, BLANK, NEUTRAL, NEUTRAL,
                          BLANK, BLANK),
    "Count-based": (BLANK, BLANK, BLANK, BLANK, BLANK, BLANK, BLANK,
                    NEUTRAL),
}

#: eyeWnder capability -> module that implements it in this repository.
EYEWNDER_CAPABILITY_MODULES: Dict[str, str] = {
    "Privacy-preserving": "repro.protocol / repro.crypto",
    "Real-users": "repro.simulation (synthetic panel substitute)",
    "Operates in real-time": "repro.core.detector (local counters)",
    "High scalability": "repro.sketch.countmin (constant-size reports)",
    "Count-based": "repro.core (the contribution)",
    "Click-fraud": "repro.extension.landing (no-click extraction)",
    "Fake impressions": "repro.extension (passive observation only)",
}


def render_comparison_table() -> str:
    """Plain-text rendering of Table 3."""
    name_width = max(len(name) for name in COMPARISON_MATRIX) + 2
    col_width = max(len(s) for s in SYSTEMS) + 2
    lines = [" " * name_width
             + "".join(s.ljust(col_width) for s in SYSTEMS)]
    for row_name, cells in COMPARISON_MATRIX.items():
        line = row_name.ljust(name_width)
        line += "".join((cell or "-").ljust(col_width) for cell in cells)
        lines.append(line)
    lines.append("")
    lines.append(f"{NEGATIVE} negative   {POSITIVE} positive   "
                 f"{NEUTRAL} neutral   {UNSPECIFIED} unspecified   "
                 f"- not applicable")
    return "\n".join(lines)
