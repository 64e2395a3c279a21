package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fairtcim/internal/xrand"
)

// Dynamic-graph deltas. A Graph is immutable; evolving a network means
// applying a batch of edge/weight/group changes and getting a *new* Graph
// back while the old snapshot stays fully readable — in-flight traversals
// and samplers holding the old pointer are never perturbed. The returned
// DeltaResult names exactly what changed, in the form downstream sketch
// maintenance needs: the heads of changed edges drive incremental RR-set
// refresh (a reverse BFS only examines an edge u→w after visiting w), and
// the full arcs drive live-edge world invalidation accounting.
//
// The new snapshot is spliced from the old one's CSR arrays, never rebuilt
// from an edge list. The batch is sorted once; each change is classified
// by a binary search in its source's out-row; then each direction's
// arrays are written by bulk copies of the untouched spans with only the
// changed rows merged. Thresholds carry over and are recomputed only for
// changed arcs. A batch therefore costs one O(n+m) copy plus O(b log b)
// for b changes, with a constant number of allocations. Parts a batch does
// not change are shared with the predecessor: a group-only batch shares
// the adjacency, an edge-only batch shares the group index.

// Arc identifies one directed edge by its endpoints.
type Arc struct {
	From, To NodeID
}

// EdgeDelta is one edge change: an upsert of u→v to probability P in
// (0,1], or a removal when Remove is set (P must then be zero).
type EdgeDelta struct {
	From   NodeID  `json:"from"`
	To     NodeID  `json:"to"`
	P      float64 `json:"p,omitempty"`
	Remove bool    `json:"remove,omitempty"`
}

// GroupDelta moves one node to a new group label.
type GroupDelta struct {
	Node  NodeID `json:"node"`
	Group int    `json:"group"`
}

// Delta is one batch of graph changes, applied atomically: either the
// whole batch validates and produces a new snapshot, or the graph is
// unchanged.
type Delta struct {
	Edges  []EdgeDelta  `json:"edges,omitempty"`
	Groups []GroupDelta `json:"groups,omitempty"`
}

// Empty reports whether the delta contains no changes at all.
func (d Delta) Empty() bool { return len(d.Edges) == 0 && len(d.Groups) == 0 }

// DeltaResult reports what ApplyDelta actually changed. An upsert that
// restates an edge's existing probability is a no-op and is counted
// nowhere — it neither dirties RR sets nor invalidates worlds.
type DeltaResult struct {
	EdgesAdded    int
	EdgesUpdated  int
	EdgesRemoved  int
	GroupsChanged int

	// TouchedArcs are the directed edges whose presence or probability
	// changed, deduplicated.
	TouchedArcs []Arc
	// TouchedHeads are the distinct head nodes (To endpoints) of
	// TouchedArcs, sorted ascending — the dirty frontier for reverse-
	// reachable sketch maintenance.
	TouchedHeads []NodeID
}

// arcEdit is one effective change to a CSR direction: row/col are the
// (From, To) endpoints for the forward arrays and (To, From) for the
// reverse ones. An edit whose col is absent from the old row is an
// addition; a present one is an update, or a removal when remove is set.
type arcEdit struct {
	row, col NodeID
	p        float64
	thresh   uint64
	remove   bool
}

func compareEdits(a, b arcEdit) int {
	if c := cmp.Compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.col, b.col)
}

// ApplyDelta validates and applies a batch of changes, returning the new
// immutable snapshot alongside a DeltaResult. g itself is never modified.
// Rules: endpoints must be existing nodes (deltas do not add nodes),
// upsert probabilities must lie in (0,1], removals must name existing
// edges, group labels must stay dense with every group non-empty, and a
// batch may not name the same edge twice.
func (g *Graph) ApplyDelta(d Delta) (*Graph, *DeltaResult, error) {
	if d.Empty() {
		return nil, nil, fmt.Errorf("graph: empty delta")
	}
	n := g.N()
	edits := make([]arcEdit, len(d.Edges))
	for i, e := range d.Edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, nil, fmt.Errorf("graph: delta edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		if e.Remove {
			if e.P != 0 {
				return nil, nil, fmt.Errorf("graph: delta removes edge %d->%d but also sets p=%v", e.From, e.To, e.P)
			}
		} else if !(e.P > 0 && e.P <= 1) {
			return nil, nil, fmt.Errorf("graph: delta edge %d->%d probability %v outside (0,1]", e.From, e.To, e.P)
		}
		edits[i] = arcEdit{row: e.From, col: e.To, p: e.P, remove: e.Remove}
	}
	slices.SortFunc(edits, compareEdits)

	// Classify against the old out-rows, dropping no-op restatements in
	// place; the survivors stay in (From, To) order.
	res := &DeltaResult{}
	kept := edits[:0]
	for i, e := range edits {
		if i > 0 && compareEdits(edits[i-1], e) == 0 {
			return nil, nil, fmt.Errorf("graph: delta names edge %d->%d twice", e.row, e.col)
		}
		lo, hi := g.outOffsets[e.row], g.outOffsets[e.row+1]
		j, found := slices.BinarySearch(g.outTargets[lo:hi], e.col)
		switch {
		case !found && e.remove:
			return nil, nil, fmt.Errorf("graph: delta removes nonexistent edge %d->%d", e.row, e.col)
		case !found:
			res.EdgesAdded++
		case e.remove:
			res.EdgesRemoved++
		case g.outProbs[lo+int32(j)] == e.p:
			continue
		default:
			res.EdgesUpdated++
		}
		if !e.remove {
			e.thresh = xrand.Threshold53(e.p)
		}
		kept = append(kept, e)
	}
	edits = kept

	labels, err := g.applyGroupDeltas(d.Groups, res)
	if err != nil {
		return nil, nil, err
	}

	out := *g
	if len(edits) > 0 {
		m := g.M() + res.EdgesAdded - res.EdgesRemoved
		if m > math.MaxInt32 {
			return nil, nil, fmt.Errorf("graph: %d edges exceed the int32 CSR offset range", m)
		}
		res.TouchedArcs = make([]Arc, len(edits))
		res.TouchedHeads = make([]NodeID, len(edits))
		for i, e := range edits {
			res.TouchedArcs[i] = Arc{From: e.row, To: e.col}
			res.TouchedHeads[i] = e.col
		}
		slices.Sort(res.TouchedHeads)
		res.TouchedHeads = slices.Compact(res.TouchedHeads)

		out.outOffsets, out.outTargets, out.outProbs, out.outThresh =
			spliceCSR(g.outOffsets, g.outTargets, g.outProbs, g.outThresh, edits, m)
		for i := range edits {
			edits[i].row, edits[i].col = edits[i].col, edits[i].row
		}
		slices.SortFunc(edits, compareEdits)
		out.inOffsets, out.inTargets, out.inProbs, out.inThresh =
			spliceCSR(g.inOffsets, g.inTargets, g.inProbs, g.inThresh, edits, m)
		out.sumProbs = 0
		for _, p := range out.outProbs {
			out.sumProbs += p
		}
	}
	if labels != nil {
		if out.groups, out.groupSizes, out.numGroups, err = normalizeGroups(labels); err != nil {
			return nil, nil, err
		}
		out.buildGroupIndex()
	}
	return &out, res, nil
}

// applyGroupDeltas applies the group moves in order to a copy of g's
// labels, counting each move that changes a node's current label into
// res. It returns nil when no label changed, so the caller shares g's
// group index.
func (g *Graph) applyGroupDeltas(moves []GroupDelta, res *DeltaResult) ([]int, error) {
	if len(moves) == 0 {
		return nil, nil
	}
	n := g.N()
	labels := make([]int, n)
	for v, l := range g.groups {
		labels[v] = int(l)
	}
	for _, gd := range moves {
		if gd.Node < 0 || int(gd.Node) >= n {
			return nil, fmt.Errorf("graph: delta group change for node %d out of range [0,%d)", gd.Node, n)
		}
		if gd.Group < 0 {
			return nil, fmt.Errorf("graph: delta assigns node %d negative group %d", gd.Node, gd.Group)
		}
		if labels[gd.Node] != gd.Group {
			labels[gd.Node] = gd.Group
			res.GroupsChanged++
		}
	}
	if res.GroupsChanged == 0 {
		return nil, nil
	}
	return labels, nil
}

// spliceCSR returns fresh CSR arrays (m arcs) equal to the old ones with
// edits applied. edits must be sorted by (row, col), name each arc once,
// and be consistent with the old arrays: removals and updates name
// present arcs, additions absent ones. Spans between changed rows move by
// bulk copy; only the changed rows are merged entry by entry.
func spliceCSR(off []int32, tgt []NodeID, probs []float64, thresh []uint64, edits []arcEdit, m int) ([]int32, []NodeID, []float64, []uint64) {
	n := len(off) - 1
	nOff := make([]int32, n+1)
	nTgt := make([]NodeID, m)
	nProbs := make([]float64, m)
	nThresh := make([]uint64, m)

	// bulk copies old arcs [lo, hi) to slot dst on and returns the next
	// free slot.
	bulk := func(dst, lo, hi int) int {
		copy(nTgt[dst:], tgt[lo:hi])
		copy(nProbs[dst:], probs[lo:hi])
		copy(nThresh[dst:], thresh[lo:hi])
		return dst + hi - lo
	}

	var (
		src   = 0 // next old arc not yet written
		dst   = 0 // next new arc slot
		row   = 0 // next offset not yet written
		shift = int32(0)
	)
	for i := 0; i < len(edits); {
		u := int(edits[i].row)
		j := i
		for j < len(edits) && int(edits[j].row) == u {
			j++
		}
		// Rows before u keep their arcs: offsets move by the running shift.
		for v := row; v <= u; v++ {
			nOff[v] = off[v] + shift
		}
		lo, hi := int(off[u]), int(off[u+1])
		dst = bulk(dst, src, lo)

		// Merge row u's old arcs with its edits, both ascending by col.
		k := lo
		for _, e := range edits[i:j] {
			run := k
			for k < hi && tgt[k] < e.col {
				k++
			}
			dst = bulk(dst, run, k)
			if k < hi && tgt[k] == e.col {
				k++ // replaced or removed
				if e.remove {
					continue
				}
			}
			nTgt[dst], nProbs[dst], nThresh[dst] = e.col, e.p, e.thresh
			dst++
		}
		dst = bulk(dst, k, hi)

		src, row = hi, u+1
		shift = int32(dst) - off[row]
		i = j
	}
	for v := row; v <= n; v++ {
		nOff[v] = off[v] + shift
	}
	bulk(dst, src, len(tgt))
	return nOff, nTgt, nProbs, nThresh
}
