"""The default fuzzy LUT table, src/contrastkit/fuzzy_default.bin: build it
from the exact integer oracle and compare, or rewrite the file.

Inside an image's intensity range [lo, hi] the default-config fuzzy LUT
depends only on the span width w = hi - lo; outside it is the identity.
The file holds, for each width w in 2..255, the w + 1 outputs of levels
lo..hi, starting at byte w(w + 1)/2 - 3: 32,893 bytes in all. Each table
is `bruteforce.fuzzy_default_map(0, w)[: w + 1]`, which rounds the exact
centroid in integer arithmetic.

    python tests/fuzzy_table.py           # compare; exit 1 on any difference
    python tests/fuzzy_table.py --write   # rewrite fuzzy_default.bin
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import bruteforce

TABLE = Path(__file__).resolve().parents[1] / "src" / "contrastkit" / "fuzzy_default.bin"


def table_bytes() -> bytes:
    """Every width's table, widths 2..255 in order."""
    return bytes(v for w in range(2, 256) for v in bruteforce.fuzzy_default_map(0, w)[: w + 1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {TABLE.name} from the oracle")
    args = parser.parse_args(argv)
    data = table_bytes()
    if args.write:
        TABLE.write_bytes(data)
        print(f"wrote {TABLE} ({len(data)} bytes)")
        return 0
    if not TABLE.is_file() or TABLE.read_bytes() != data:
        print(f"{TABLE} differs from the exact oracle's tables", file=sys.stderr)
        return 1
    print(f"{TABLE} matches the exact oracle's tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
