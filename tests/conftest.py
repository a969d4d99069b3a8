from pathlib import Path

import numpy as np


def write_profile_csv(path, values, preamble_lines: int = 3, delimiter: str = ",") -> Path:
    """Write a profile fixture in the metadata-preamble CSV layout."""
    path = Path(path)
    lines = [f"meta line {i + 1}" for i in range(preamble_lines)]
    lines.append(f"time{delimiter}electricity")
    lines += [f"t{i}{delimiter}{float(v)!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def mean_power_derivative(p, x: float) -> float:
    """Slope of the transformed mean, (1/m) * sum of p_i**x * ln(p_i) over p_i > 0.

    The pow-form reference for the slope that the solver's Newton steps
    compute in exp-log form: nonpositive everywhere, and zero exactly when
    every nonzero value is 1.
    """
    pos = p.values[p.values > 0.0]
    return float(np.sum(pos ** x * np.log(pos)) / p.values.size)
