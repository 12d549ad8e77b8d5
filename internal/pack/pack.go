// Package pack clusters a mapped LUT network into the BLEs and CLBs of
// an eFPGA fabric (VPack-style greedy packing): first LUT/FF pairs are
// fused into basic logic elements, then BLEs are grouped into CLBs
// under the cluster size and input-pin constraints, maximizing shared
// nets.
package pack

import (
	"cmp"
	"fmt"
	"slices"

	"alice/internal/fabric"
	"alice/internal/techmap"
)

// BLE is one basic logic element: an optional LUT and an optional FF.
// Output semantics: if FF >= 0 the BLE output is the registered value;
// the unregistered LUT output remains available only when the FF input
// is that same LUT (fabric BLEs expose one output, selected by a config
// bit).
type BLE struct {
	LUT int32 // LUT node id in the LUTNetwork, or -1
	FF  int32 // FF node id, or -1
}

// Out returns the LUTNetwork node whose value this BLE outputs.
func (b BLE) Out() int32 {
	if b.FF >= 0 {
		return b.FF
	}
	return b.LUT
}

// CLB is a cluster of up to BLEsPerCLB BLEs.
type CLB struct {
	BLEs []BLE
	// Inputs are the LUTNetwork node ids feeding this CLB from outside.
	Inputs []int32
}

// Packing is the result of clustering a LUT network.
type Packing struct {
	Net  *techmap.LUTNetwork
	Arch fabric.Arch
	CLBs []CLB
	// Loc maps each BLE-output node id to its (clb, ble) position.
	Loc map[int32][2]int
}

// NumCLBs returns the number of occupied CLBs.
func (p *Packing) NumCLBs() int { return len(p.CLBs) }

// Pack clusters the LUT network for the given architecture. It fails if
// the network does not fit the fabric's CLB count or if a single BLE's
// connectivity cannot satisfy the CLB input bound.
func Pack(ln *techmap.LUTNetwork, arch fabric.Arch) (*Packing, error) {
	for i, nd := range ln.Nodes {
		if nd.Kind == techmap.LLUT && len(nd.In) > arch.LUTSize {
			return nil, fmt.Errorf("pack: %s: LUT %d has %d inputs but fabric %s LUTs have %d",
				ln.Name, i, len(nd.In), arch.Name(), arch.LUTSize)
		}
	}
	bles, err := buildBLEs(ln)
	if err != nil {
		return nil, err
	}
	clbs, err := clusterBLEs(ln, bles, arch)
	if err != nil {
		return nil, err
	}
	if len(clbs) > arch.CLBCount() {
		return nil, fmt.Errorf("pack: %s needs %d CLBs but fabric %s has %d",
			ln.Name, len(clbs), arch.Name(), arch.CLBCount())
	}
	p := &Packing{Net: ln, Arch: arch, CLBs: clbs, Loc: make(map[int32][2]int)}
	for ci := range clbs {
		for bi, b := range clbs[ci].BLEs {
			p.Loc[b.Out()] = [2]int{ci, bi}
		}
	}
	return p, nil
}

// buildBLEs fuses FFs with their driving LUTs where legal.
func buildBLEs(ln *techmap.LUTNetwork) ([]BLE, error) {
	fanout := make([]int, len(ln.Nodes))
	for _, n := range ln.Nodes {
		for _, in := range n.In {
			fanout[in]++
		}
	}
	for _, po := range ln.POs {
		fanout[po]++
	}
	usedLUT := make(map[int32]bool)
	var bles []BLE
	for _, f := range ln.FFs {
		d := ln.Nodes[f].In[0]
		if ln.Nodes[d].Kind == techmap.LLUT && fanout[d] == 1 && !usedLUT[d] {
			// Fuse: LUT feeds only this FF.
			usedLUT[d] = true
			bles = append(bles, BLE{LUT: d, FF: f})
		} else {
			bles = append(bles, BLE{LUT: -1, FF: f})
		}
	}
	for i, n := range ln.Nodes {
		if n.Kind == techmap.LLUT && !usedLUT[int32(i)] {
			bles = append(bles, BLE{LUT: int32(i), FF: -1})
		}
	}
	return bles, nil
}

// appendBLEInputs appends the external nodes a BLE reads to dst.
func appendBLEInputs(dst []int32, ln *techmap.LUTNetwork, b BLE) []int32 {
	if b.LUT >= 0 {
		dst = append(dst, ln.Nodes[b.LUT].In...)
	}
	if b.FF >= 0 {
		d := ln.Nodes[b.FF].In[0]
		if d != b.LUT {
			dst = append(dst, d)
		}
	}
	return dst
}

// clusterBLEs groups BLEs into CLBs greedily by attraction (number of
// shared nets), respecting the cluster size and external-input bounds.
// Seeds are taken in order (descending input count, stable); each fill
// step adds the feasible unplaced BLE of highest gain, the earliest in
// order on ties.
//
// This is the profiled hot loop of fast-mode characterization, so no
// fill step scans all BLEs. The cluster's input/output sets are
// generation-stamped flat arrays with the external-input count kept
// incrementally, and the cluster keeps a frontier: the unplaced BLEs
// that share an input with it, read one of its outputs or drive one of
// its inputs. That is exactly the set of BLEs with a positive gain, and
// each join adds its gain increments through reader and producer
// indexes built once, so a fill step only checks the frontier. When no
// frontier BLE fits, every feasible BLE has gain 0 and the first in
// order wins; a cursor past the placed prefix of order finds it.
func clusterBLEs(ln *techmap.LUTNetwork, bles []BLE, arch fabric.Arch) ([]CLB, error) {
	n := len(bles)
	nn := len(ln.Nodes)
	placed := make([]bool, n)
	isConst := func(nd int32) bool {
		k := ln.Nodes[nd].Kind
		return k == techmap.LConst0 || k == techmap.LConst1
	}
	// Each BLE's raw input list (with repeats, for gain scoring) and its
	// deduplicated non-constant list (for external-input accounting),
	// carved out of two flat arrays sized so appends never reallocate.
	size := n
	for _, b := range bles {
		if b.LUT >= 0 {
			size += len(ln.Nodes[b.LUT].In)
		}
	}
	rawFlat := make([]int32, 0, size)
	dedupFlat := make([]int32, 0, size)
	rawIns := make([][]int32, n)
	dedupIns := make([][]int32, n)
	for i, b := range bles {
		rs, ds := len(rawFlat), len(dedupFlat)
		rawFlat = appendBLEInputs(rawFlat, ln, b)
		for _, in := range rawFlat[rs:] {
			if !isConst(in) && !slices.Contains(dedupFlat[ds:], in) {
				dedupFlat = append(dedupFlat, in)
			}
		}
		rawIns[i] = rawFlat[rs:len(rawFlat):len(rawFlat)]
		dedupIns[i] = dedupFlat[ds:len(dedupFlat):len(dedupFlat)]
	}
	// Sort seeds by descending input count for better fills.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(len(rawIns[b]), len(rawIns[a]))
	})
	rank := make([]int32, n)
	for r, b := range order {
		rank[b] = int32(r)
	}

	// readers[readStart[x]:readStart[x+1]] lists the BLEs reading node x
	// (constants included, as in the gain score); producer[x] is the BLE
	// whose output is x, or -1.
	readStart := make([]int32, nn+1)
	for _, in := range rawFlat {
		readStart[in+1]++
	}
	for x := 0; x < nn; x++ {
		readStart[x+1] += readStart[x]
	}
	readers := make([]int32, len(rawFlat))
	fill := slices.Clone(readStart[:nn])
	for b := range bles {
		for _, in := range rawIns[b] {
			readers[fill[in]] = int32(b)
			fill[in]++
		}
	}
	producer := make([]int32, nn)
	for x := range producer {
		producer[x] = -1
	}
	for b := range bles {
		producer[bles[b].Out()] = int32(b)
	}

	// Generation-stamped member sets: inMark marks nodes read by some
	// member (including constants, matching the gain score), outMark
	// marks member outputs, seenMark marks inputs already listed by
	// external. extNow counts the distinct non-constant member inputs
	// not produced inside the cluster.
	inMark := make([]uint32, nn)
	outMark := make([]uint32, nn)
	seenMark := make([]uint32, nn)
	var gen uint32
	extNow := 0
	// gain[b] is unplaced BLE b's attraction to the cluster when
	// gainMark[b] == gen: one per input it shares with a member, two per
	// input a member produces, two if it produces a member input. The
	// frontier lists the BLEs with a positive gain.
	gain := make([]int32, n)
	gainMark := make([]uint32, n)
	var frontier []int32
	attract := func(b, by int32) {
		if placed[b] {
			return
		}
		if gainMark[b] != gen {
			gainMark[b], gain[b] = gen, 0
			frontier = append(frontier, b)
		}
		gain[b] += by
	}
	attractReaders := func(x, by int32) {
		for _, r := range readers[readStart[x]:readStart[x+1]] {
			attract(r, by)
		}
	}
	// join adds a BLE to the current cluster, updating the sets, the
	// external-input count, the gains and the frontier.
	join := func(b int32) {
		placed[b] = true
		out := bles[b].Out()
		if inMark[out] == gen && outMark[out] != gen {
			extNow-- // an input some member read is now produced inside
		}
		outMark[out] = gen
		attractReaders(out, 2) // direct producer-consumer adjacency is best
		for _, in := range dedupIns[b] {
			if inMark[in] != gen && outMark[in] != gen {
				extNow++
			}
		}
		for _, in := range rawIns[b] {
			if inMark[in] != gen {
				inMark[in] = gen
				attractReaders(in, 1)
				if p := producer[in]; p >= 0 {
					attract(p, 2)
				}
			}
		}
	}
	// trialExt returns the cluster's external-input count if cand joined.
	trialExt := func(cand int32) int {
		out := bles[cand].Out()
		delta := 0
		if inMark[out] == gen && outMark[out] != gen {
			delta--
		}
		for _, in := range dedupIns[cand] {
			if inMark[in] != gen && outMark[in] != gen && in != out {
				delta++
			}
		}
		return extNow + delta
	}
	// advance moves cursor past the placed prefix of order.
	cursor := 0
	advance := func() {
		for cursor < n && placed[order[cursor]] {
			cursor++
		}
	}
	// next returns the best BLE to add to the current cluster, or -1.
	next := func() int32 {
		best, bestGain := int32(-1), int32(0)
		live := frontier[:0]
		for _, cand := range frontier {
			if placed[cand] {
				continue
			}
			live = append(live, cand)
			if trialExt(cand) > arch.CLBInputs {
				continue
			}
			if g := gain[cand]; g > bestGain || g == bestGain && rank[cand] < rank[best] {
				best, bestGain = cand, g
			}
		}
		frontier = live
		if best >= 0 {
			return best
		}
		advance()
		for _, cand := range order[cursor:] {
			if !placed[cand] && trialExt(cand) <= arch.CLBInputs {
				return cand
			}
		}
		return -1
	}

	// external lists a final cluster's distinct external inputs in
	// deterministic member order (this order defines the CLB pin
	// assignment downstream).
	external := func(members []int32) []int32 {
		var ext []int32
		if extNow > 0 {
			ext = make([]int32, 0, extNow)
		}
		for _, m := range members {
			for _, in := range rawIns[m] {
				if isConst(in) || outMark[in] == gen || seenMark[in] == gen {
					continue
				}
				seenMark[in] = gen
				ext = append(ext, in)
			}
		}
		return ext
	}

	var clbs []CLB
	packed := make([]BLE, 0, n) // backing array of every CLB's BLEs
	members := make([]int32, 0, arch.BLEsPerCLB)
	for {
		advance()
		if cursor == n {
			break
		}
		seed := order[cursor]
		gen++
		extNow = 0
		frontier = frontier[:0]
		members = append(members[:0], seed)
		join(seed)
		if extNow > arch.CLBInputs {
			return nil, fmt.Errorf("pack: %s: a single BLE needs %d inputs, CLB offers %d",
				ln.Name, extNow, arch.CLBInputs)
		}
		for len(members) < arch.BLEsPerCLB {
			best := next()
			if best == -1 {
				break
			}
			members = append(members, best)
			join(best)
		}
		start := len(packed)
		for _, m := range members {
			packed = append(packed, bles[m])
		}
		clbs = append(clbs, CLB{BLEs: packed[start:len(packed):len(packed)], Inputs: external(members)})
	}
	return clbs, nil
}

// Validate checks packing invariants: every LUT/FF appears exactly once,
// cluster sizes and input bounds hold.
func (p *Packing) Validate() error {
	seen := make(map[int32]int)
	for ci, clb := range p.CLBs {
		if len(clb.BLEs) > p.Arch.BLEsPerCLB {
			return fmt.Errorf("pack: CLB %d has %d BLEs (max %d)", ci, len(clb.BLEs), p.Arch.BLEsPerCLB)
		}
		if len(clb.Inputs) > p.Arch.CLBInputs {
			return fmt.Errorf("pack: CLB %d has %d inputs (max %d)", ci, len(clb.Inputs), p.Arch.CLBInputs)
		}
		for _, b := range clb.BLEs {
			if b.LUT >= 0 {
				seen[b.LUT]++
			}
			if b.FF >= 0 {
				seen[b.FF]++
			}
		}
	}
	for i, n := range p.Net.Nodes {
		want := 0
		if n.Kind == techmap.LLUT || n.Kind == techmap.LFF {
			want = 1
		}
		if got := seen[int32(i)]; got != want {
			return fmt.Errorf("pack: node %d (%s) packed %d times, want %d", i, n.Kind, got, want)
		}
	}
	return nil
}
