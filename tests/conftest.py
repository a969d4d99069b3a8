from pathlib import Path


def write_profile_csv(path, values, preamble_lines: int = 3, delimiter: str = ",") -> Path:
    """Write a profile fixture in the metadata-preamble CSV layout."""
    path = Path(path)
    lines = [f"meta line {i + 1}" for i in range(preamble_lines)]
    lines.append(f"time{delimiter}electricity")
    lines += [f"t{i}{delimiter}{float(v)!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
