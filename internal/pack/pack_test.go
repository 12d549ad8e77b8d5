package pack

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"alice/internal/bench"
	"alice/internal/fabric"
	"alice/internal/netlist"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

func randomLUTNetwork(r *rand.Rand) *techmap.LUTNetwork {
	bd := netlist.NewBuilder("r")
	var pool []int32
	for i := 0; i < 2+r.Intn(6); i++ {
		pool = append(pool, bd.Input(string(rune('a'+i))))
	}
	var dffs []int32
	for i := 0; i < r.Intn(5); i++ {
		d := bd.DFF()
		dffs = append(dffs, d)
		pool = append(pool, d)
	}
	pick := func() int32 { return pool[r.Intn(len(pool))] }
	for i := 0; i < 10+r.Intn(80); i++ {
		var id int32
		switch r.Intn(4) {
		case 0:
			id = bd.And(pick(), pick())
		case 1:
			id = bd.Or(pick(), pick())
		case 2:
			id = bd.Xor(pick(), pick())
		case 3:
			id = bd.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	for _, d := range dffs {
		bd.SetD(d, pick())
	}
	for i := 0; i < 1+r.Intn(5); i++ {
		bd.Output("o", pick())
	}
	ln, err := techmap.Map(opt.Optimize(bd.N))
	if err != nil {
		panic(err)
	}
	return ln
}

// Property: packing is a partition (every LUT/FF exactly once) under
// all constraints.
func TestQuickPackIsValidPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ln := randomLUTNetwork(r)
		arch := fabric.NewArch(8)
		p, err := Pack(ln, arch)
		if err != nil {
			t.Logf("pack failed: %v", err)
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPackRespectsCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ln := randomLUTNetwork(r)
	needed := ln.NumLUTs() + ln.NumFFs() // upper bound on BLEs
	// A fabric that's clearly too small must fail.
	tiny := fabric.NewArch(1)
	if needed > tiny.LUTCapacity() {
		if _, err := Pack(ln, tiny); err == nil {
			t.Error("packing into a too-small fabric should fail")
		}
	}
	// A big fabric succeeds.
	big := fabric.NewArch(10)
	p, err := Pack(ln, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPackFusesLUTFFPairs(t *testing.T) {
	bd := netlist.NewBuilder("fuse")
	a := bd.Input("a")
	b := bd.Input("b")
	x := bd.And(a, b)
	d := bd.DFF()
	bd.SetD(d, x)
	bd.Output("q", d)
	ln, err := techmap.Map(bd.N)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Pack(ln, fabric.NewArch(2))
	if err != nil {
		t.Fatal(err)
	}
	// One BLE: fused LUT+FF.
	total := 0
	for _, clb := range p.CLBs {
		for _, ble := range clb.BLEs {
			total++
			if ble.LUT < 0 || ble.FF < 0 {
				t.Errorf("expected fused BLE, got %+v", ble)
			}
		}
	}
	if total != 1 {
		t.Errorf("BLEs = %d, want 1", total)
	}
}

// corpusNetwork synthesizes a corpus benchmark and maps it at LUT
// size k.
func corpusNetwork(tb testing.TB, b bench.Benchmark, k int) *techmap.LUTNetwork {
	tb.Helper()
	ast, err := verilog.Parse(b.Source())
	if err != nil {
		tb.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		tb.Fatal(err)
	}
	res, err := synth.SynthesizeOpts(d, synth.Options{UnifyClocks: true})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := techmap.MapK(opt.Optimize(res.Netlist), k)
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// checkSameClustering fails unless clusterBLEs and the reference
// clusterer return the same CLBs (BLE order and Inputs order included)
// or the same error.
func checkSameClustering(t *testing.T, what string, ln *techmap.LUTNetwork, arch fabric.Arch) {
	t.Helper()
	bles, err := buildBLEs(ln)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := clusterBLEs(ln, bles, arch)
	want, wantErr := clusterBLEsReference(ln, bles, arch)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d CLBs, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].BLEs, want[i].BLEs) || !slices.Equal(got[i].Inputs, want[i].Inputs) {
			t.Fatalf("%s: CLB %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// differentialArchs are CLB shapes for the differential tests at K=4:
// the paper's K4N4, wide clusters, and input bounds tight enough that
// many candidates are infeasible.
func differentialArchs() []fabric.Arch {
	var out []fabric.Arch
	for _, p := range []fabric.Params{
		{},
		{BLEsPerCLB: 8},
		{BLEsPerCLB: 8, CLBInputs: 6},
		{BLEsPerCLB: 3, CLBInputs: 4},
		{BLEsPerCLB: 1},
	} {
		out = append(out, p.At(4))
	}
	return out
}

// Property: the frontier clusterer reproduces the reference clusterer
// on random networks under every CLB shape.
func TestQuickClusterMatchesReference(t *testing.T) {
	archs := differentialArchs()
	f := func(seed int64) bool {
		ln := randomLUTNetwork(rand.New(rand.NewSource(seed)))
		for _, arch := range archs {
			checkSameClustering(t, fmt.Sprintf("seed %d %s", seed, arch.Name()), ln, arch)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestClusterMatchesReferenceCorpus runs the differential check on every
// corpus benchmark mapped at K=4 and K=6, packed with the K4N4 and K6N4
// families of the architecture sweep.
func TestClusterMatchesReferenceCorpus(t *testing.T) {
	for _, b := range bench.All() {
		for _, k := range []int{4, 6} {
			ln := corpusNetwork(t, b, k)
			arch := fabric.Params{LUTSize: k}.At(4)
			checkSameClustering(t, fmt.Sprintf("%s %s", b.Name, arch.Name()), ln, arch)
		}
	}
}

// handNetwork builds a LUT network of two constants, the named number
// of inputs, and LUTs over the given fanins (input i is node 2+i, LUT j
// is node 2+inputs+j). Every LUT drives an output.
func handNetwork(inputs int, luts [][]int32) *techmap.LUTNetwork {
	ln := &techmap.LUTNetwork{Name: "hand", K: techmap.MaxK}
	ln.Nodes = append(ln.Nodes, techmap.LNode{Kind: techmap.LConst0}, techmap.LNode{Kind: techmap.LConst1})
	for i := 0; i < inputs; i++ {
		ln.PIs = append(ln.PIs, int32(len(ln.Nodes)))
		ln.PINames = append(ln.PINames, fmt.Sprintf("i%d", i))
		ln.Nodes = append(ln.Nodes, techmap.LNode{Kind: techmap.LInput})
	}
	for j, in := range luts {
		ln.POs = append(ln.POs, int32(len(ln.Nodes)))
		ln.PONames = append(ln.PONames, fmt.Sprintf("o%d", j))
		ln.Nodes = append(ln.Nodes, techmap.LNode{Kind: techmap.LLUT, Mask: 0x6, In: in})
	}
	return ln
}

// TestClusterSharedConstants gives LUTs constant fanins: constants count
// toward the gain (so they pull BLEs onto the frontier) but never toward
// the external inputs.
func TestClusterSharedConstants(t *testing.T) {
	const c0, c1 = 0, 1
	ln := handNetwork(6, [][]int32{
		{c0, 2, 3},
		{c1, 4},
		{c0, c1, 5, 6},
		{c0, 7},
		{c1, 2, 8},
		{c0, c1},
		{9, 10},
	})
	for _, p := range []fabric.Params{{}, {BLEsPerCLB: 3, CLBInputs: 4}, {BLEsPerCLB: 2, CLBInputs: 4}} {
		checkSameClustering(t, p.Name(), ln, p.At(2))
	}
	bles, _ := buildBLEs(ln)
	clbs, err := clusterBLEs(ln, bles, fabric.NewArch(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, clb := range clbs {
		for _, in := range clb.Inputs {
			if in == c0 || in == c1 {
				t.Errorf("constant %d listed as a CLB input: %v", in, clb.Inputs)
			}
		}
	}
}

// TestClusterFrontierFallback covers the gain-0 fallback in the middle of
// a CLB: once when the frontier empties (disjoint LUTs), and once when
// the frontier is non-empty but every frontier BLE would overflow the
// input bound.
func TestClusterFrontierFallback(t *testing.T) {
	// Disjoint LUTs: the frontier is empty after every join, so each
	// CLB fills in seed order.
	disjoint := handNetwork(8, [][]int32{{2, 3, 4}, {5, 6}, {7}, {8, 9}})
	arch := fabric.NewArch(2)
	checkSameClustering(t, "disjoint", disjoint, arch)
	bles, _ := buildBLEs(disjoint)
	clbs, err := clusterBLEs(disjoint, bles, arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(clbs) != 1 || len(clbs[0].BLEs) != 4 {
		t.Fatalf("disjoint LUTs should fill one CLB, got %+v", clbs)
	}

	// The seed (LUT 8) shares input 2 with LUT 9, but the pair needs 7
	// external inputs; LUT 10 shares nothing and fits, so it wins with
	// gain 0 while the frontier still holds LUT 9.
	blocked := handNetwork(8, [][]int32{{2, 3, 4, 5}, {2, 6, 7, 8}, {9}})
	tight := fabric.Params{BLEsPerCLB: 4, CLBInputs: 5}.At(2)
	checkSameClustering(t, "blocked", blocked, tight)
	bles, _ = buildBLEs(blocked)
	clbs, err = clusterBLEs(blocked, bles, tight)
	if err != nil {
		t.Fatal(err)
	}
	want := []BLE{{LUT: 10, FF: -1}, {LUT: 12, FF: -1}}
	if len(clbs) != 2 || !slices.Equal(clbs[0].BLEs, want) {
		t.Fatalf("blocked frontier: CLBs %+v, want first CLB %v", clbs, want)
	}
}

// BenchmarkPack measures packing des3's K=4 network onto the smallest
// default fabric that holds it.
func BenchmarkPack(b *testing.B) {
	bm, _ := bench.ByName("des3")
	ln := corpusNetwork(b, bm, techmap.DefaultK)
	w := 1
	for !fabric.NewArch(w).FitsLUTs(ln.NumLUTs(), ln.NumFFs()) {
		w++
	}
	for ; ; w++ {
		if _, err := Pack(ln, fabric.NewArch(w)); err == nil {
			break
		}
	}
	arch := fabric.NewArch(w)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Pack(ln, arch); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterBLEsReference is the straightforward greedy clusterer that
// clusterBLEs must reproduce exactly: every fill step rescans all BLEs
// in seed order and keeps the first feasible one of highest gain.
func clusterBLEsReference(ln *techmap.LUTNetwork, bles []BLE, arch fabric.Arch) ([]CLB, error) {
	n := len(bles)
	placed := make([]bool, n)
	// Precompute each BLE's raw input list (with repeats, for gain
	// scoring) and its deduplicated non-constant list (for external-
	// input accounting).
	rawIns := make([][]int32, n)
	dedupIns := make([][]int32, n)
	isConst := func(nd int32) bool {
		k := ln.Nodes[nd].Kind
		return k == techmap.LConst0 || k == techmap.LConst1
	}
	for i := range bles {
		raw := appendBLEInputs(nil, ln, bles[i])
		rawIns[i] = raw
		var ded []int32
		for _, in := range raw {
			if isConst(in) {
				continue
			}
			dup := false
			for _, o := range ded {
				if o == in {
					dup = true
					break
				}
			}
			if !dup {
				ded = append(ded, in)
			}
		}
		dedupIns[i] = ded
	}
	// Sort seeds by descending input count for better fills.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(rawIns[order[a]]) > len(rawIns[order[b]])
	})

	// Generation-stamped member sets: inMark marks nodes read by some
	// member (including constants, matching the gain score), outMark
	// marks member outputs. extNow counts the distinct non-constant
	// member inputs not produced inside the cluster.
	inMark := make([]uint32, len(ln.Nodes))
	outMark := make([]uint32, len(ln.Nodes))
	var gen uint32
	extNow := 0

	// join adds a BLE to the current cluster, updating the sets and the
	// external-input count.
	join := func(b int) {
		out := bles[b].Out()
		if inMark[out] == gen && outMark[out] != gen {
			extNow-- // an input some member read is now produced inside
		}
		outMark[out] = gen
		for _, in := range dedupIns[b] {
			if inMark[in] != gen && outMark[in] != gen {
				extNow++
			}
		}
		for _, in := range rawIns[b] {
			inMark[in] = gen
		}
	}
	// trialExt returns the cluster's external-input count if cand joined.
	trialExt := func(cand int) int {
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
	// gainOf scores candidate-to-member attraction: shared inputs plus
	// direct producer-consumer adjacency.
	gainOf := func(cand int) int {
		gain := 0
		for _, in := range rawIns[cand] {
			if inMark[in] == gen {
				gain++
			}
			if outMark[in] == gen {
				gain += 2 // direct producer-consumer adjacency is best
			}
		}
		if inMark[bles[cand].Out()] == gen {
			gain += 2
		}
		return gain
	}

	// external recomputes a final cluster's distinct external inputs in
	// deterministic member order (this order defines the CLB pin
	// assignment downstream).
	external := func(members []int) []int32 {
		inside := make(map[int32]bool)
		for _, m := range members {
			inside[bles[m].Out()] = true
		}
		seen := make(map[int32]bool)
		var ext []int32
		for _, m := range members {
			for _, in := range rawIns[m] {
				if isConst(in) || inside[in] || seen[in] {
					continue
				}
				seen[in] = true
				ext = append(ext, in)
			}
		}
		return ext
	}

	var clbs []CLB
	members := make([]int, 0, arch.BLEsPerCLB)
	for _, seed := range order {
		if placed[seed] {
			continue
		}
		gen++
		extNow = 0
		members = append(members[:0], seed)
		placed[seed] = true
		join(seed)
		if extNow > arch.CLBInputs {
			return nil, fmt.Errorf("pack: %s: a single BLE needs %d inputs, CLB offers %d",
				ln.Name, extNow, arch.CLBInputs)
		}
		for len(members) < arch.BLEsPerCLB {
			best, bestGain := -1, -1
			for _, cand := range order {
				if placed[cand] {
					continue
				}
				if trialExt(cand) > arch.CLBInputs {
					continue
				}
				if gain := gainOf(cand); gain > bestGain {
					bestGain, best = gain, cand
				}
			}
			if best == -1 {
				break
			}
			members = append(members, best)
			placed[best] = true
			join(best)
		}
		clb := CLB{}
		for _, m := range members {
			clb.BLEs = append(clb.BLEs, bles[m])
		}
		clb.Inputs = external(members)
		clbs = append(clbs, clb)
	}
	return clbs, nil
}
