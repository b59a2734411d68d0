#!/usr/bin/env python3
"""Print the Poincare-series data and continued fractions for the affine
families: numerator tables, series expansions, and the nested fraction of
each diagram rooted at its affine vertex.

Usage:
    python scripts/show_tables.py [--max-rank N] [--terms N]
"""

import sys

from coxkit.cfrac import evaluate, expand_cycle, expand_tree, render
from coxkit.cli import _int_in, _Parser, run_piped
from coxkit.diagram import MAX_VERTICES
from coxkit.errors import UsageError
from coxkit.kostant import MAX_TERMS, klein_data, klein_types, poincare_series


def main(argv=None) -> int:
    ap = _Parser()
    # an affine type of rank n has n + 1 vertices, and a rank past the
    # vertex cap would fail only after every smaller type
    ap.add_argument("--max-rank", type=_int_in(1, MAX_VERTICES - 1), default=8)
    ap.add_argument("--terms", type=_int_in(0, MAX_TERMS), default=24)
    try:
        args = ap.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for fam, n in klein_types(args.max_rank):
        data = klein_data(fam, n)
        tag = fam.replace("aff", "~") + str(n)
        print(f"== {tag}:  a={data.a}  b={data.b}  h={data.h}  "
              f"|B|={data.order_b}")
        for i, z in enumerate(data.z_table):
            print(f"   Z_{i} = {z.render()}")
        print(f"   Z_-1 = {data.z_minus1.render()}")
        print(f"   P_0 through q^{args.terms}: "
              f"{poincare_series(data, 0, args.terms).render()}")
        node = (expand_cycle(n) if fam == "affA"
                else expand_tree(data.diagram(), 0))
        print("   fraction value:", evaluate(node).render("z"))
        print(render(node, "ascii"))
        print()
    return 0


if __name__ == "__main__":
    # a reader that closes early (`| head`) ends it with exit 1, no traceback
    sys.exit(run_piped(main))
