#!/usr/bin/env python3
"""Inspect the orbit graph, its chain paths, and the two certificates.

Orbit profiles i in {s..k-1} carry weight C(k,i) * C(n-k,k-i); profiles
on opposite sides conflict iff k-l <= i+t <= k+s-1.  The typed edges
split the graph into even paths; when every path carries an equal-weight
middle edge, no independent set can beat one full side.  The flow-based
maximum-weight independent set certifies the same bound directly and
works even where the path argument has a gap (k-l odd with
floor((k-l)/2) still a meaningful profile).
"""

from crossint import (Params, build_chain_decomposition, build_orbit_graph,
                      decomposition_to_dot, max_weight_independent_set,
                      size_extremal_family, validate_decomposition)


def flow_certificate(params):
    _, weight = max_weight_independent_set(
        build_orbit_graph(params).as_bipartite())
    return weight


def show(params):
    dec = build_chain_decomposition(params)
    verdict = validate_decomposition(dec, dec.graph)
    print(f"(n, k, s) = ({params.n}, {params.k}, {params.s})   "
          f"slack l = {params.l}")
    for path in dec.paths:
        names = " - ".join(v.name() for v in path)
        weights = [v.weight for v in path]
        print(f"  path: {names}")
        print(f"        weights {weights}")
    print(f"  path validation: {'valid' if verdict.passed else 'INVALID'}"
          + ("" if verdict.passed else f"  ({verdict.detail})"))
    mwis = flow_certificate(params)
    want = size_extremal_family(params) - 1
    print(f"  flow certificate: MWIS = {mwis}, one side = {want}  "
          f"{'ok' if mwis == want else 'MISMATCH'}")
    name = f"chains_n{params.n}_k{params.k}_s{params.s}.dot"
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(decomposition_to_dot(dec))
    print(f"  wrote {name}")
    print()


def main():
    print("chain paths and certificates")
    print("=" * 72)
    # balanced instances: every path has an equal-weight middle edge
    show(Params(9, 4, 2))
    show(Params(11, 6, 2))
    # an unbalanced instance: k-l = 5 is odd and floor((k-l)/2) = 2 >= s,
    # so the profile-2 vertices pair only with their light mirrors; the
    # flow certificate still confirms the bound
    show(Params(9, 5, 2))


if __name__ == "__main__":
    main()
