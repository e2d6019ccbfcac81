"""Maximum-weight maximum-cardinality matching on a complete graph.

Christofides' construction (:func:`repro.tours.arrays.
christofides_indices`) pairs the odd-degree spanning-tree nodes with a
minimum-weight perfect matching. :func:`max_weight_matching` is that
step in index space: vertices are ``0 .. n-1``, the graph is complete,
and the weight of edge ``{v, w}`` is ``weights[v][w]`` (a list of
lists of Python numbers, read only off the diagonal).

It is a port of networkx's ``max_weight_matching`` — Joris van
Rantwijk's implementation of Edmonds' blossom algorithm, after Z.
Galil, "Efficient Algorithms for Finding Maximum Matching in Graphs",
ACM Computing Surveys, 1986 — with ``maxcardinality=True``. The port is
mechanical, so it makes every decision the original makes, in the same
order, and returns the same matching:

* vertices are visited in index order wherever the original walks
  ``G.nodes``, and a vertex's neighbours in ascending index order (the
  adjacency order of the complete graph that networkx's
  ``min_weight_matching`` builds over index-ordered nodes);
* the dicts whose iteration order picks between equal slacks
  (``blossomparent`` for the S-blossom step, ``blossomdual`` for the
  T-blossom step and the end-of-stage expansion) stay dicts with the
  same insert/delete sequence;
* every slack is the same float expression, ``dualvar[v] + dualvar[w]
  - 2 * weight``, and integer weights keep integer arithmetic.

What changes is the representation: list-indexed duals, mates and
top-level blossoms, an integer-keyed set of allowable edges, and a
list-of-lists weight lookup instead of ``G[v][w].get(weight)`` through
networkx's adjacency views. The original's optional optimality check
(``verifyOptimum``, integer weights only) and its assertions are left
out; neither affects the result.

The networkx source this ports is distributed under the 3-clause BSD
license, reproduced here as its terms require::

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

#: ``mate`` value of an unmatched vertex, and the "no vertex" marker
#: the original spells ``NoNode``.
UNMATCHED = -1

_Edge = Tuple[int, int]


class _Blossom:
    """A non-trivial blossom: sub-blossoms ``childs`` round the cycle
    from the base, ``edges[i]`` joining ``childs[i]`` to
    ``childs[i + 1]``, and ``mybestedges``, the least-slack edges to
    neighbouring S-blossoms (top-level S-blossoms only)."""

    __slots__ = ("childs", "edges", "mybestedges")

    def __init__(self) -> None:
        self.childs: List[Union[int, "_Blossom"]] = []
        self.edges: List[_Edge] = []
        self.mybestedges: Optional[List[_Edge]] = None

    def leaves(self) -> Iterator[int]:
        """The blossom's vertices, in the original's stack order."""
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


_Node = Union[int, _Blossom]


def max_weight_matching(weights: Sequence[Sequence[float]]) -> List[int]:
    """Maximum-weight matching among the maximum-cardinality matchings
    of the complete graph on ``len(weights)`` vertices.

    Args:
        weights: symmetric ``n x n`` edge weights as Python numbers
            (ints keep the computation in integers, as in networkx).

    Returns:
        ``mate``: ``mate[v]`` is ``v``'s partner, or :data:`UNMATCHED`
        (only possible for odd ``n``).
    """
    n = len(weights)
    mate = [UNMATCHED] * n
    if n == 0:
        return mate

    maxweight: float = 0
    allinteger = True
    for i in range(n):
        row = weights[i]
        for j in range(i + 1, n):
            wt = row[j]
            if wt > maxweight:
                maxweight = wt
            allinteger = allinteger and type(wt) is int

    # label[b]: 1 = S-blossom, 2 = T-blossom, None or absent = free,
    # 5 = S-blossom holding a breadcrumb during scan_blossom; for a
    # vertex inside a T-blossom, 2 iff reached from outside it.
    label: Dict[_Node, Optional[int]] = {}
    labeledge: Dict[_Node, Optional[_Edge]] = {}
    inblossom: List[_Node] = list(range(n))
    blossomparent: Dict[_Node, Optional[_Blossom]] = {
        v: None for v in range(n)
    }
    blossombase: Dict[_Node, int] = {v: v for v in range(n)}
    bestedge: Dict[_Node, Optional[_Edge]] = {}
    dualvar: List[float] = [maxweight] * n
    blossomdual: Dict[_Blossom, float] = {}
    # Zero-slack edges (v, w) as v * n + w, both orientations.
    allowedge: Set[int] = set()
    queue: List[int] = []
    label_get = label.get
    bestedge_get = bestedge.get

    def slack(v: int, w: int) -> float:
        return dualvar[v] + dualvar[w] - 2 * weights[v][w]

    def assign_label(w: int, t: int, v: Optional[int]) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if isinstance(b, _Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        elif t == 2:
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v: int, w: int) -> int:
        """Base of the blossom closed by edge (v, w), or UNMATCHED when
        the edge completes an augmenting path."""
        path: List[_Node] = []
        base = UNMATCHED
        while v != UNMATCHED:
            b = inblossom[v]
            if label[b] == 5:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            edge = labeledge[b]
            if edge is None:
                v = UNMATCHED
            else:
                v = edge[0]
                b = inblossom[v]
                v = labeledge[b][0]  # type: ignore[index]
            if w != UNMATCHED:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        path: List[_Node] = []
        edgs: List[_Edge] = [(v, w)]
        b.childs = path
        b.edges = edgs
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])  # type: ignore[arg-type]
            v = labeledge[bv][0]  # type: ignore[index]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edge = labeledge[bw]
            edgs.append((edge[1], edge[0]))  # type: ignore[index]
            w = edge[0]  # type: ignore[index]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for leaf in b.leaves():
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        bestedgeto: Dict[_Node, _Edge] = {}
        for sub in path:
            if isinstance(sub, _Blossom):
                if sub.mybestedges is not None:
                    nblist = sub.mybestedges
                    sub.mybestedges = None
                else:
                    nblist = [
                        (x, y) for x in sub.leaves() for y in range(n) if x != y
                    ]
            else:
                nblist = [(sub, y) for y in range(n) if sub != y]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label.get(bj) == 1
                    and (
                        (bj not in bestedgeto)
                        or slack(i, j) < slack(*bestedgeto[bj])
                    )
                ):
                    bestedgeto[bj] = k
            bestedge[sub] = None
        b.mybestedges = list(bestedgeto.values())
        mybestedge = None
        mybestslack = 0.0
        bestedge[b] = None
        for k in b.mybestedges:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b: _Blossom, endstage: bool) -> None:
        # The original's trampoline: recursion flattened into a stack
        # of generators, each yielding the sub-blossom to expand next.
        def recurse(b: _Blossom, endstage: bool) -> Iterator[_Blossom]:
            for s in b.childs:
                blossomparent[s] = None
                if isinstance(s, _Blossom):
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for leaf in s.leaves():
                            inblossom[leaf] = s
                else:
                    inblossom[s] = s
            if (not endstage) and label.get(b) == 2:
                entrychild = inblossom[labeledge[b][1]]  # type: ignore[index]
                j = b.childs.index(entrychild)
                if j & 1:
                    j -= len(b.childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]  # type: ignore[misc]
                while j != 0:
                    if jstep == 1:
                        p, q = b.edges[j]
                    else:
                        q, p = b.edges[j - 1]
                    label[w] = None
                    label[q] = None
                    assign_label(w, 2, v)
                    allowedge.add(p * n + q)
                    allowedge.add(q * n + p)
                    j += jstep
                    if jstep == 1:
                        v, w = b.edges[j]
                    else:
                        w, v = b.edges[j - 1]
                    allowedge.add(v * n + w)
                    allowedge.add(w * n + v)
                    j += jstep
                bw = b.childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while b.childs[j] != entrychild:
                    bv = b.childs[j]
                    if label.get(bv) == 1:
                        j += jstep
                        continue
                    if isinstance(bv, _Blossom):
                        for v in bv.leaves():
                            if label.get(v):
                                break
                    else:
                        v = bv
                    if label.get(v):
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assign_label(v, 2, labeledge[v][0])  # type: ignore[index]
                    j += jstep
            label.pop(b, None)
            labeledge.pop(b, None)
            bestedge.pop(b, None)
            del blossomparent[b]
            del blossombase[b]
            del blossomdual[b]

        stack = [recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(b: _Blossom, v: int) -> None:
        def recurse(b: _Blossom, v: int) -> Iterator[Tuple[_Blossom, int]]:
            t: _Node = v
            while blossomparent[t] != b:
                t = blossomparent[t]  # type: ignore[assignment]
            if isinstance(t, _Blossom):
                yield (t, v)
            i = j = b.childs.index(t)
            if i & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, _Blossom):
                    yield (t, w)
                j += jstep
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]

        stack = [recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int) -> None:
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                edge = labeledge[bs]
                if edge is None:
                    break
                t = edge[0]
                bt = inblossom[t]
                s, j = labeledge[bt]  # type: ignore[misc]
                if isinstance(bt, _Blossom):
                    augment_blossom(bt, j)
                mate[j] = s

    while True:
        # One stage: find an augmenting path and grow the matching.
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for blossom in blossomdual:
            blossom.mybestedges = None
        allowedge.clear()
        queue[:] = []
        for v in range(n):
            if mate[v] == UNMATCHED and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)

        augmented = False
        while True:
            # One substage: label until an augmenting path appears or
            # the duals must move.
            while queue and not augmented:
                v = queue.pop()
                row = weights[v]
                # Duals only move in the dual step, and v's top-level
                # blossom only when a new blossom absorbs it; both are
                # loop invariants here otherwise.
                dual_v = dualvar[v]
                bv = inblossom[v]
                base_key = v * n
                for w in range(n):
                    if w == v:
                        continue
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if base_key + w in allowedge:
                        allowed = True
                    else:
                        kslack = dual_v + dualvar[w] - 2 * row[w]
                        allowed = kslack <= 0
                        if allowed:
                            allowedge.add(base_key + w)
                            allowedge.add(w * n + v)
                    label_bw = label_get(bw)
                    if allowed:
                        if label_bw is None:
                            assign_label(w, 2, v)
                        elif label_bw == 1:
                            base = scan_blossom(v, w)
                            if base != UNMATCHED:
                                add_blossom(base, v, w)
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label_get(w) is None:
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label_bw == 1:
                        # slack(*best), inlined in this hottest loop.
                        best = bestedge_get(bv)
                        if best is None or kslack < (
                            dualvar[best[0]]
                            + dualvar[best[1]]
                            - 2 * weights[best[0]][best[1]]
                        ):
                            bestedge[bv] = (v, w)
                    elif label_get(w) is None:
                        best = bestedge_get(w)
                        if best is None or kslack < (
                            dualvar[best[0]]
                            + dualvar[best[1]]
                            - 2 * weights[best[0]][best[1]]
                        ):
                            bestedge[w] = (v, w)

            if augmented:
                break

            # No augmenting path under the current duals: compute the
            # dual step (slacks and deltas are pre-multiplied by two).
            deltatype = -1
            delta: float = 0
            deltaedge: Optional[_Edge] = None
            deltablossom: Optional[_Blossom] = None

            # delta2: least slack between an S-vertex and a free vertex.
            for v in range(n):
                best = bestedge.get(v)
                if label.get(inblossom[v]) is None and best is not None:
                    d = slack(*best)
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = best

            # delta3: half the least slack between two S-blossoms.
            for b in blossomparent:
                best = bestedge.get(b)
                if (
                    blossomparent[b] is None
                    and label.get(b) == 1
                    and best is not None
                ):
                    kslack = slack(*best)
                    if allinteger:
                        d = kslack // 2
                    else:
                        d = kslack / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = best

            # delta4: least dual of a top-level T-blossom.
            for blossom in blossomdual:
                if (
                    blossomparent[blossom] is None
                    and label.get(blossom) == 2
                    and (deltatype == -1 or blossomdual[blossom] < delta)
                ):
                    delta = blossomdual[blossom]
                    deltatype = 4
                    deltablossom = blossom

            if deltatype == -1:
                # Maximum cardinality reached: a last dual step.
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(n):
                vlabel = label.get(inblossom[v])
                if vlabel == 1:
                    dualvar[v] -= delta
                elif vlabel == 2:
                    dualvar[v] += delta
            for blossom in blossomdual:
                if blossomparent[blossom] is None:
                    blabel = label.get(blossom)
                    if blabel == 1:
                        blossomdual[blossom] += delta
                    elif blabel == 2:
                        blossomdual[blossom] -= delta

            if deltatype == 1:
                break
            elif deltatype in (2, 3):
                v, w = deltaedge  # type: ignore[misc]
                allowedge.add(v * n + w)
                allowedge.add(w * n + v)
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)  # type: ignore[arg-type]

        if not augmented:
            break

        # End of stage: expand every top-level S-blossom at zero dual.
        for blossom in list(blossomdual):
            if blossom not in blossomdual:
                continue
            if (
                blossomparent[blossom] is None
                and label.get(blossom) == 1
                and blossomdual[blossom] == 0
            ):
                expand_blossom(blossom, True)

    return mate


__all__ = ["UNMATCHED", "max_weight_matching"]
