"""Write the census stand-in table and its schema for the fidelity plan.

Run from the root of a checkout:

    python fidelity/write_census.py

It writes ``fidelity/census.csv``, the 10,000 rows of
``census_table(10_000)`` from ``tests/_datasets.py``, and
``fidelity/census.schema.json``, the two files ``fidelity/plan.json``
reads.  Set ``TABSYNTH_ADULT_CSV`` to use real census rows instead.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests")]

from _datasets import census_table  # noqa: E402
from tabsynth.schema import save_schema, write_table  # noqa: E402


def main() -> None:
    table = census_table(10_000)
    write_table(table, HERE / "census.csv")
    save_schema(table.schema, HERE / "census.schema.json")
    print(f"wrote {table.n_rows} rows to {HERE / 'census.csv'} "
          f"and its schema to {HERE / 'census.schema.json'}")


if __name__ == "__main__":
    main()
