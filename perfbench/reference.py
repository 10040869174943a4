"""Record the atlas-sweep reference flags.

Writes data/atlas_flags.json: the region_grid flags of every candidate
row the atlas-sweep workload can draw, and of the README 30 x 30 grid the
atlas CLI command computes. The flags were recorded at the commit that
introduced the benchmark; rerun only to re-baseline on purpose:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (ATLAS_REFERENCE, ATLAS_ROWS, ATLAS_SUBROWS,  # noqa: E402
                       atlas_row, flag_string, readme_grid)


def main() -> None:
    from nmwaves.atlas import region_grid

    rows = [[flag_string(region_grid([tau], ps))
             for tau, ps in (atlas_row(s, r) for r in range(ATLAS_SUBROWS))]
            for s in range(ATLAS_ROWS)]
    taus, ps = readme_grid()
    payload = {"rows": rows, "readme_grid": flag_string(region_grid(taus, ps))}
    with open(ATLAS_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
