"""Write the Taylor centres of robinwall's Airy evaluator from 30-digit mpmath values.

Run from the repository root as ``python tests/airy_centres.py``: it
rewrites ``src/robinwall/_airy_centres.py``.  ``test_airy.py`` reruns
:func:`render` and compares its text with the committed file, so the
table can only change through this script.

Centre j sits at LOW + (j + 1/2) STEP.  Every centre carries Ai and Ai',
times exp((2/3) c^(3/2)) above SCALE_SWITCH, and the centres below 0 carry
Bi and Bi' as well.  Each value is computed at 30 digits and rounded once
to the nearest double.
"""

from pathlib import Path

import mpmath

LOW = -10.0
HIGH = 12.0
STEP = 0.0625
SCALE_SWITCH = 8.0
DIGITS = 30

TARGET = Path(__file__).resolve().parents[1] / "src" / "robinwall" / "_airy_centres.py"

HEADER = '''"""Ai, Ai' and Bi, Bi' at the Taylor centres of :mod:`._airy`.

Written by tests/airy_centres.py from {digits}-digit mpmath values, each
rounded to the nearest double; regenerate it rather than edit it.  Centre
j sits at LOW + (j + 1/2) STEP.  AI holds Ai(c), Ai'(c) of every centre in
turn, both times exp((2/3) c^(3/2)) above SCALE_SWITCH; BI holds Bi(c),
Bi'(c) of the centres below 0.
"""

LOW = {low!r}
STEP = {step!r}
SCALE_SWITCH = {switch!r}
'''


def centre_values() -> tuple:
    """Flat (Ai, Ai', ...) over all centres and (Bi, Bi', ...) over the negative ones."""
    ai, bi = [], []
    with mpmath.workdps(DIGITS):
        for j in range(round((HIGH - LOW) / STEP)):
            c = mpmath.mpf(LOW) + (j + mpmath.mpf(0.5)) * STEP
            scale = mpmath.exp(2 * c ** 1.5 / 3) if c > SCALE_SWITCH else 1
            ai += [float(mpmath.airyai(c) * scale), float(mpmath.airyai(c, 1) * scale)]
            if c < 0:
                bi += [float(mpmath.airybi(c)), float(mpmath.airybi(c, 1))]
    return tuple(ai), tuple(bi)


def _block(name: str, values: tuple) -> str:
    lines = [f"{name} = ("]
    for i in range(0, len(values), 4):
        lines.append("    " + " ".join(f"{v!r}," for v in values[i:i + 4]))
    return "\n".join(lines) + "\n)\n"


def render() -> str:
    ai, bi = centre_values()
    head = HEADER.format(digits=DIGITS, low=LOW, step=STEP, switch=SCALE_SWITCH)
    return head + "\n" + _block("AI", ai) + "\n" + _block("BI", bi)


if __name__ == "__main__":
    TARGET.write_text(render())
