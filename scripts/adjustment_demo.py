#!/usr/bin/env python3
"""Walk one dependency through the local-unitary adjustment pipeline.

Starts from a singlet product, whose B-column dependency B_1 + B_2 -> 0 is
rotated into an A-column dependency, then prints the orthogonality report
that the adjusted state satisfies.  Finishes with the two-common-columns
adjustment on the same pair of slots.

Usage: python3 scripts/adjustment_demo.py [--singlets K]
"""

import argparse

import numpy as np

from orbitscope import (
    adjust_dependency,
    adjust_two_common,
    make_singlet_product,
    orbit_dimension,
    orthogonality_report,
    triple_columns,
    triple_span_dim,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--singlets", type=int, default=1)
    args = parser.parse_args()

    psi = make_singlet_product(args.singlets)
    slots = [2 * args.singlets - 1, 2 * args.singlets]
    print(f"state: singlet*{args.singlets} (n={psi.n}), "
          f"orbit dim {orbit_dimension(psi)}, "
          f"span<T_{slots[0]}, T_{slots[1]}> = {triple_span_dim(psi, slots)}")

    u, psi_adj = adjust_dependency(psi, slots, [(0, 1, 0), (0, 1, 0)], [1, 1])
    post = sum(triple_columns(psi_adj, j)[0] for j in slots)
    print(f"adjust_dependency: |A_{slots[0]} + A_{slots[1]}| on adjusted state "
          f"= {np.linalg.norm(post):.2e}")
    report = orthogonality_report(psi_adj, "main", slots=slots, xi=[1.0, 1.0])
    print(f"main report: parity slots {sorted(report.parity_slots)}, "
          f"{report.values.size} checks, all pass: {report.all_pass}")

    u2, psi_two = adjust_two_common(psi, *slots)
    report2 = orthogonality_report(psi_two, "two-common", l=slots[0], lp=slots[1])
    print(f"two-common report: {report2.values.size} checks, "
          f"all pass: {report2.all_pass}")
    print(f"orbit dim preserved: {orbit_dimension(psi_adj)} == {orbit_dimension(psi)}")


if __name__ == "__main__":
    main()
