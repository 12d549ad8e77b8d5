// Package techmap maps an optimized gate netlist onto K-input lookup
// tables using exhaustive K-feasible cut enumeration with priority
// pruning and a depth-first, area-flow-second cost, in the style of
// classic FPGA mappers. K is a runtime parameter in [MinK, MaxK]; the
// default Map targets the 4-LUT fabric of Sec. 7 of the ALICE paper,
// while MapK opens the architecture space of the follow-on work ("Not
// All Fabrics Are Created Equal"), where LUT size is a security/
// overhead lever. The result is a LUT network whose truth tables are
// computed exactly from the covered cones, ready for packing onto an
// eFPGA.
package techmap

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"alice/internal/netlist"
)

// MinK and MaxK bound the supported LUT input counts. MaxK = 6 keeps a
// full truth table in one uint64 word.
const (
	MinK = 2
	MaxK = 6
)

// DefaultK is the LUT input count of the paper's fabric.
const DefaultK = 4

// maxCutsPerNode bounds the priority cut list kept per node.
const maxCutsPerNode = 10

// LKind is a LUT-network node kind.
type LKind uint8

// LUT network node kinds.
const (
	LConst0 LKind = iota
	LConst1
	LInput
	LLUT
	LFF
)

func (k LKind) String() string {
	switch k {
	case LConst0:
		return "const0"
	case LConst1:
		return "const1"
	case LInput:
		return "input"
	case LLUT:
		return "lut"
	case LFF:
		return "ff"
	}
	return "?"
}

// LNode is a node of the mapped network. LUT nodes have up to K inputs
// and a truth-table mask (bit i of an input assignment selects mask bit
// at that index; up to 2^MaxK = 64 bits). FF nodes have exactly one
// input (D).
type LNode struct {
	Kind LKind
	Mask uint64
	In   []int32
}

// LUTNetwork is a mapped design.
type LUTNetwork struct {
	Name string
	// K is the LUT input bound the network was mapped for (0 is treated
	// as MaxK by Validate, for networks assembled by hand).
	K       int
	Nodes   []LNode
	PIs     []int32
	PINames []string
	POs     []int32
	PONames []string
	FFs     []int32
}

// LUTSize returns the network's LUT input bound.
func (ln *LUTNetwork) LUTSize() int {
	if ln.K == 0 {
		return MaxK
	}
	return ln.K
}

// NumLUTs returns the number of LUT nodes.
func (ln *LUTNetwork) NumLUTs() int {
	c := 0
	for _, n := range ln.Nodes {
		if n.Kind == LLUT {
			c++
		}
	}
	return c
}

// NumFFs returns the number of flip-flops.
func (ln *LUTNetwork) NumFFs() int { return len(ln.FFs) }

// Depth returns the maximum LUT depth from inputs/FFs to outputs.
func (ln *LUTNetwork) Depth() int {
	depth := make([]int, len(ln.Nodes))
	maxd := 0
	for i, n := range ln.Nodes {
		if n.Kind != LLUT {
			continue
		}
		d := 0
		for _, in := range n.In {
			if ln.Nodes[in].Kind == LLUT && depth[in] >= d {
				d = depth[in]
			} else if ln.Nodes[in].Kind == LLUT {
				if depth[in] > d {
					d = depth[in]
				}
			}
		}
		depth[i] = d + 1
		if depth[i] > maxd {
			maxd = depth[i]
		}
	}
	return maxd
}

// Validate checks structural invariants of the LUT network.
func (ln *LUTNetwork) Validate() error {
	k := ln.LUTSize()
	for i, n := range ln.Nodes {
		switch n.Kind {
		case LLUT:
			if len(n.In) == 0 || len(n.In) > k {
				return fmt.Errorf("techmap: %s: LUT %d has %d inputs (K=%d)", ln.Name, i, len(n.In), k)
			}
			for _, in := range n.In {
				if in < 0 || int(in) >= len(ln.Nodes) {
					return fmt.Errorf("techmap: %s: LUT %d input out of range", ln.Name, i)
				}
				if n.Kind != LFF && int(in) >= i && ln.Nodes[in].Kind != LFF && ln.Nodes[in].Kind != LInput {
					return fmt.Errorf("techmap: %s: LUT %d not topological", ln.Name, i)
				}
			}
		case LFF:
			if len(n.In) != 1 {
				return fmt.Errorf("techmap: %s: FF %d must have one input", ln.Name, i)
			}
			if n.In[0] < 0 || int(n.In[0]) >= len(ln.Nodes) {
				return fmt.Errorf("techmap: %s: FF %d input out of range", ln.Name, i)
			}
		}
	}
	for i, po := range ln.POs {
		if po < 0 || int(po) >= len(ln.Nodes) {
			return fmt.Errorf("techmap: %s: PO %s out of range", ln.Name, ln.PONames[i])
		}
	}
	return nil
}

// cut is a set of at most K leaves, sorted ascending. The array is
// sized for MaxK; size and the mapper's runtime k bound the live
// prefix. sig is the OR of 1<<(leaf&31) over the leaves: its popcount
// never exceeds the leaf count, and a subset's sig is a subset of the
// superset's, so it rejects most merges and dominance tests without
// touching the leaves. A 32-bit sig keeps the struct at 32 bytes.
type cut struct {
	leaves [MaxK]int32
	sig    uint32
	size   int8
}

// unitCut returns the trivial cut {id}.
func unitCut(id int32) cut {
	return cut{leaves: [MaxK]int32{id}, sig: 1 << uint(id&31), size: 1}
}

// dominates reports whether c's leaves are a subset of d's, by one
// merge pass over the two sorted leaf lists.
func (c *cut) dominates(d *cut) bool {
	if c.size > d.size || c.sig&^d.sig != 0 {
		return false
	}
	j := int8(0)
	for i := int8(0); i < c.size; i++ {
		x := c.leaves[i]
		for j < d.size && d.leaves[j] < x {
			j++
		}
		if j == d.size || d.leaves[j] != x {
			return false
		}
		j++
	}
	return true
}

// mayMerge is the signature filter run before mergeCuts: false proves
// the union of a and b exceeds k leaves.
func mayMerge(a, b *cut, k int8) bool {
	return bits.OnesCount32(a.sig|b.sig) <= int(k)
}

// mergeCuts unions two cuts; ok is false if the union exceeds k leaves.
func mergeCuts(a, b *cut, k int8) (cut, bool) {
	out := cut{sig: a.sig | b.sig}
	i, j := int8(0), int8(0)
	for i < a.size || j < b.size {
		var v int32
		switch {
		case i >= a.size:
			v = b.leaves[j]
			j++
		case j >= b.size:
			v = a.leaves[i]
			i++
		case a.leaves[i] < b.leaves[j]:
			v = a.leaves[i]
			i++
		case a.leaves[i] > b.leaves[j]:
			v = b.leaves[j]
			j++
		default:
			v = a.leaves[i]
			i++
			j++
		}
		if out.size == k {
			return out, false
		}
		out.leaves[out.size] = v
		out.size++
	}
	return out, true
}

// Map maps a netlist onto the default 4-LUT network of the paper's
// fabric.
func Map(n *netlist.Netlist) (*LUTNetwork, error) { return MapK(n, DefaultK) }

// MapK maps a netlist onto K-input LUTs for a runtime K in [MinK,
// MaxK]. At K = 4 the output is identical to Map. At K = 2, 3-ary Mux
// gates have no 2-feasible cut of their own, so they are lowered to
// And/Or/Not first.
func MapK(n *netlist.Netlist, k int) (*LUTNetwork, error) {
	if k < MinK || k > MaxK {
		return nil, fmt.Errorf("techmap: LUT size %d out of range [%d,%d]", k, MinK, MaxK)
	}
	if k == 2 {
		var err error
		n, err = lowerMux(n)
		if err != nil {
			return nil, err
		}
	}
	m := &mapper{n: n, k: int8(k)}
	return m.run()
}

// lowerMux rewrites every Mux gate as (~s & d0) | (s & d1), preserving
// everything else (the builder re-folds and hash-conses, which only
// shrinks the network). Netlists without Mux gates pass through
// untouched.
func lowerMux(n *netlist.Netlist) (*netlist.Netlist, error) {
	hasMux := false
	for _, nd := range n.Nodes {
		if nd.Op == netlist.Mux {
			hasMux = true
			break
		}
	}
	if !hasMux {
		return n, nil
	}
	bd := netlist.NewBuilder(n.Name)
	piName := make(map[int32]string, len(n.PIs))
	for i, pi := range n.PIs {
		piName[pi] = n.PINames[i]
	}
	nmap := make([]int32, len(n.Nodes))
	for i, nd := range n.Nodes {
		id := int32(i)
		switch nd.Op {
		case netlist.Const0:
			nmap[i] = 0
		case netlist.Const1:
			nmap[i] = 1
		case netlist.Input:
			nmap[i] = bd.Input(piName[id])
		case netlist.DFF:
			nmap[i] = bd.DFF()
		case netlist.Not:
			nmap[i] = bd.Not(nmap[nd.In[0]])
		case netlist.And:
			nmap[i] = bd.And(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Or:
			nmap[i] = bd.Or(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Xor:
			nmap[i] = bd.Xor(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Mux:
			s, d0, d1 := nmap[nd.In[0]], nmap[nd.In[1]], nmap[nd.In[2]]
			nmap[i] = bd.Or(bd.And(bd.Not(s), d0), bd.And(s, d1))
		default:
			// A silently-unhandled op would map to node 0 (const0) and
			// miscompile every K=2 cone containing it. Synthesized input
			// can in principle carry ops this rewriter postdates, so this
			// is a typed error rather than a crash.
			return nil, fmt.Errorf("techmap: lowerMux: unhandled op %s at node %d of %s", nd.Op, i, n.Name)
		}
	}
	for _, d := range n.DFFs {
		bd.SetD(nmap[d], nmap[n.Nodes[d].In[0]])
	}
	for i, po := range n.POs {
		bd.Output(n.PONames[i], nmap[po])
	}
	return bd.N, nil
}

type nodeInfo struct {
	cuts  []cut
	best  cut
	depth int32
	area  float32
}

type mapper struct {
	n    *netlist.Netlist
	k    int8
	info []nodeInfo

	// Scratch reused from node to node by enumerateCuts.
	cand []cut
	kept []cut
	keys []cutKey
}

// cutKey holds the ranking keys of kept cut idx.
type cutKey struct {
	depth int32
	area  float32
	idx   int32
	size  int8
}

func (m *mapper) isLeaf(id int32) bool {
	op := m.n.Nodes[id].Op
	return op == netlist.Input || op == netlist.DFF || op == netlist.Const0 || op == netlist.Const1
}

func (m *mapper) run() (*LUTNetwork, error) {
	n := m.n
	m.info = make([]nodeInfo, len(n.Nodes))

	// Forward pass: enumerate priority cuts per combinational node.
	for i := range n.Nodes {
		id := int32(i)
		nd := n.Nodes[i]
		inf := &m.info[i]
		if m.isLeaf(id) {
			inf.cuts = []cut{unitCut(id)}
			inf.depth = 0
			continue
		}
		switch nd.Op {
		case netlist.Not, netlist.And, netlist.Or, netlist.Xor, netlist.Mux:
			m.enumerateCuts(id)
		}
	}

	// Backward pass: choose cover from POs and DFF D-inputs.
	required := make([]bool, len(n.Nodes))
	var queue []int32
	luts, lutIns := 0, 0
	addRoot := func(id int32) {
		if !m.isLeaf(id) && !required[id] {
			required[id] = true
			queue = append(queue, id)
			luts++
			lutIns += int(m.info[id].best.size)
		}
	}
	for _, po := range n.POs {
		addRoot(po)
	}
	for _, d := range n.DFFs {
		addRoot(n.Nodes[d].In[0])
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		best := m.info[id].best
		for i := int8(0); i < best.size; i++ {
			addRoot(best.leaves[i])
		}
	}

	// Emit the LUT network in topological order.
	out := &LUTNetwork{Name: n.Name, K: int(m.k)}
	out.Nodes = make([]LNode, 0, 2+len(n.PIs)+len(n.DFFs)+luts)
	insFlat := make([]int32, 0, lutIns) // backs every LUT's input list
	emit := func(k LKind, mask uint64, ins []int32) int32 {
		id := int32(len(out.Nodes))
		out.Nodes = append(out.Nodes, LNode{Kind: k, Mask: mask, In: ins})
		return id
	}
	nmap := make([]int32, len(n.Nodes))
	for i := range nmap {
		nmap[i] = -1
	}
	// Constants and PIs first.
	c0 := emit(LConst0, 0, nil)
	c1 := emit(LConst1, 0, nil)
	nmap[0], nmap[1] = c0, c1
	for i, pi := range n.PIs {
		nmap[pi] = emit(LInput, 0, nil)
		out.PIs = append(out.PIs, nmap[pi])
		out.PINames = append(out.PINames, n.PINames[i])
	}
	// FFs next (their D set after LUT emission).
	for _, d := range n.DFFs {
		nmap[d] = emit(LFF, 0, []int32{-1})
		out.FFs = append(out.FFs, nmap[d])
	}
	// LUTs in forward order.
	for i := range n.Nodes {
		id := int32(i)
		if !required[id] || nmap[id] != -1 {
			continue
		}
		best := m.info[id].best
		start := len(insFlat)
		for k := int8(0); k < best.size; k++ {
			leaf := best.leaves[k]
			if nmap[leaf] == -1 {
				return nil, fmt.Errorf("techmap: %s: leaf %d of node %d not yet mapped", n.Name, leaf, id)
			}
			insFlat = append(insFlat, nmap[leaf])
		}
		ins := insFlat[start:len(insFlat):len(insFlat)]
		mask, err := m.truthTable(id, best)
		if err != nil {
			return nil, fmt.Errorf("techmap: %s: %w", n.Name, err)
		}
		nmap[id] = emit(LLUT, mask, ins)
	}
	// Connect FFs.
	for _, d := range n.DFFs {
		din := n.Nodes[d].In[0]
		if nmap[din] == -1 {
			return nil, fmt.Errorf("techmap: %s: DFF %d D-input unmapped", n.Name, d)
		}
		out.Nodes[nmap[d]].In[0] = nmap[din]
	}
	for i, po := range n.POs {
		out.POs = append(out.POs, nmap[po])
		out.PONames = append(out.PONames, n.PONames[i])
	}
	return out, out.Validate()
}

// enumerateCuts computes the priority cut set and the best cut of a
// combinational node.
func (m *mapper) enumerateCuts(id int32) {
	nd := m.n.Nodes[id]
	inf := &m.info[id]
	k := m.k
	cand := m.cand[:0]
	switch nd.Op.Arity() {
	case 1:
		cand = append(cand, m.info[nd.In[0]].cuts...)
	case 2:
		as, bs := m.info[nd.In[0]].cuts, m.info[nd.In[1]].cuts
		for i := range as {
			for j := range bs {
				if !mayMerge(&as[i], &bs[j], k) {
					continue
				}
				if c, ok := mergeCuts(&as[i], &bs[j], k); ok {
					cand = append(cand, c)
				}
			}
		}
	case 3:
		as, bs, cs := m.info[nd.In[0]].cuts, m.info[nd.In[1]].cuts, m.info[nd.In[2]].cuts
		for i := range as {
			for j := range bs {
				if !mayMerge(&as[i], &bs[j], k) {
					continue
				}
				ab, ok := mergeCuts(&as[i], &bs[j], k)
				if !ok {
					continue
				}
				for l := range cs {
					if !mayMerge(&ab, &cs[l], k) {
						continue
					}
					if c, ok := mergeCuts(&ab, &cs[l], k); ok {
						cand = append(cand, c)
					}
				}
			}
		}
	}
	m.cand = cand
	// Deduplicate and drop dominated cuts.
	cuts := m.kept[:0]
	for i := range cand {
		c := &cand[i]
		dominated := false
		for j := range cuts {
			if cuts[j].dominates(c) {
				dominated = true
				break
			}
		}
		if !dominated {
			// Remove cuts dominated by c.
			w := 0
			for j := range cuts {
				if !c.dominates(&cuts[j]) {
					cuts[w] = cuts[j]
					w++
				}
			}
			cuts = append(cuts[:w], *c)
		}
	}
	m.kept = cuts
	// Rank by (depth, area flow, size) and keep the best few.
	keys := m.keys[:0]
	for i := range cuts {
		c := &cuts[i]
		var depth int32
		var area float32 = 1
		for l := int8(0); l < c.size; l++ {
			li := &m.info[c.leaves[l]]
			if li.depth+1 > depth {
				depth = li.depth + 1
			}
			area += li.area / 2 // crude fanout-sharing estimate
		}
		keys = append(keys, cutKey{depth, area, int32(i), c.size})
	}
	m.keys = keys
	slices.SortFunc(keys, func(a, b cutKey) int {
		switch {
		case a.depth != b.depth:
			return cmp.Compare(a.depth, b.depth)
		case a.area < b.area:
			return -1
		case a.area > b.area:
			return 1
		}
		return cmp.Compare(a.size, b.size)
	})
	if len(keys) > maxCutsPerNode {
		keys = keys[:maxCutsPerNode]
	}
	// Trivial cut keeps deeper nodes mergeable upward.
	inf.cuts = make([]cut, len(keys)+1)
	for i, key := range keys {
		inf.cuts[i] = cuts[key.idx]
	}
	inf.cuts[len(keys)] = unitCut(id)
	inf.best = inf.cuts[0]
	inf.depth = keys[0].depth
	inf.area = keys[0].area
}

// leafPats are the canonical truth-table patterns of up to MaxK = 6
// leaf variables over 64 rows: bit r of leafPats[i] is bit i of row
// index r.
var leafPats = [MaxK]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// truthTable evaluates the cone rooted at id over the cut leaves. A
// cone that reaches an un-evaluable node (a PI, FF, or unknown op that
// the cut should have listed as a leaf) is a mapper invariant
// violation reported as a typed error, not a panic: it reaches this
// code through MapK, whose callers expect errors for bad inputs.
func (m *mapper) truthTable(id int32, c cut) (uint64, error) {
	memo := make(map[int32]uint64)
	for i := int8(0); i < c.size; i++ {
		memo[c.leaves[i]] = leafPats[i]
	}
	var evalErr error
	var eval func(x int32) uint64
	eval = func(x int32) uint64 {
		if v, ok := memo[x]; ok {
			return v
		}
		if evalErr != nil {
			return 0
		}
		nd := m.n.Nodes[x]
		var v uint64
		switch nd.Op {
		case netlist.Const0:
			v = 0
		case netlist.Const1:
			v = ^uint64(0)
		case netlist.Not:
			v = ^eval(nd.In[0])
		case netlist.And:
			v = eval(nd.In[0]) & eval(nd.In[1])
		case netlist.Or:
			v = eval(nd.In[0]) | eval(nd.In[1])
		case netlist.Xor:
			v = eval(nd.In[0]) ^ eval(nd.In[1])
		case netlist.Mux:
			s := eval(nd.In[0])
			v = (^s & eval(nd.In[1])) | (s & eval(nd.In[2]))
		default:
			evalErr = fmt.Errorf("techmap: node %d cone: leaf %d (%s) not in cut", id, x, nd.Op)
			return 0
		}
		memo[x] = v
		return v
	}
	full := eval(id)
	if evalErr != nil {
		return 0, evalErr
	}
	// Truncate to the cut's actual arity.
	bits := 1 << uint(c.size)
	if bits >= 64 {
		return full, nil
	}
	return full & ((uint64(1) << uint(bits)) - 1), nil
}
