"""Compare two saved benchmark reports metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.json NEW.json

The reports are the files ``run.py`` writes under
``perfbench/.work/results/``.  Results taken with different CPU counts
(scheduling affinity) are refused: the pooled paths scale with the CPU
count, so such a comparison says nothing about the code.
"""

from __future__ import annotations

import json
import sys


class IncomparableResults(ValueError):
    pass


def compare(base: dict, new: dict) -> dict:
    """``metric -> new / base`` for two reports of one workload."""
    for key in ("workload", "trace"):
        if base["meta"][key] != new["meta"][key]:
            raise IncomparableResults(f"different {key}: {base['meta'][key]} vs {new['meta'][key]}")
    if base["meta"]["cpus"] != new["meta"]["cpus"]:
        raise IncomparableResults(
            f"taken with {base['meta']['cpus']} and {new['meta']['cpus']} CPUs"
        )
    return {
        name: (new["metrics"][name] / value if value else None)
        for name, value in base["metrics"].items()
        if name in new["metrics"]
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    try:
        ratios = compare(base, new)
    except IncomparableResults as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2
    for name, ratio in ratios.items():
        shown = "n/a" if ratio is None else f"{ratio:.3f}x"
        print(f"{name:32s} {base['metrics'][name]:14.6g} -> {new['metrics'][name]:14.6g}  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
