package structural

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"alice/internal/techmap"
)

// netBuilder states adversarial LUT graphs explicitly, topologically.
type netBuilder struct {
	ln *techmap.LUTNetwork
}

func newNet(k int) *netBuilder {
	b := &netBuilder{ln: &techmap.LUTNetwork{Name: "t", K: k}}
	// Node 0 is const0, node 1 const1 by convention.
	b.ln.Nodes = append(b.ln.Nodes,
		techmap.LNode{Kind: techmap.LConst0},
		techmap.LNode{Kind: techmap.LConst1})
	return b
}

func (b *netBuilder) pi(name string) int32 {
	id := int32(len(b.ln.Nodes))
	b.ln.Nodes = append(b.ln.Nodes, techmap.LNode{Kind: techmap.LInput})
	b.ln.PIs = append(b.ln.PIs, id)
	b.ln.PINames = append(b.ln.PINames, name)
	return id
}

func (b *netBuilder) lut(mask uint64, ins ...int32) int32 {
	id := int32(len(b.ln.Nodes))
	b.ln.Nodes = append(b.ln.Nodes, techmap.LNode{Kind: techmap.LLUT, Mask: mask, In: ins})
	return id
}

func (b *netBuilder) ff(d int32) int32 {
	id := int32(len(b.ln.Nodes))
	b.ln.Nodes = append(b.ln.Nodes, techmap.LNode{Kind: techmap.LFF, In: []int32{d}})
	b.ln.FFs = append(b.ln.FFs, id)
	return id
}

func (b *netBuilder) po(name string, nd int32) {
	b.ln.POs = append(b.ln.POs, nd)
	b.ln.PONames = append(b.ln.PONames, name)
}

func analyze(t *testing.T, ln *techmap.LUTNetwork) *Report {
	t.Helper()
	rep, err := Analyze(ln, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got := rep.LeakedBits + rep.DeadBits + rep.OpaqueBits; got != rep.KeyBits {
		t.Fatalf("classes don't partition the key: %d+%d+%d != %d",
			rep.LeakedBits, rep.DeadBits, rep.OpaqueBits, rep.KeyBits)
	}
	if rep.EffectiveKeyBits != rep.OpaqueBits {
		t.Fatalf("EffectiveKeyBits %d != OpaqueBits %d", rep.EffectiveKeyBits, rep.OpaqueBits)
	}
	return rep
}

// bitOf finds the classified bit for (lut, row).
func bitOf(t *testing.T, rep *Report, lut int32, row int) Bit {
	t.Helper()
	for _, b := range rep.Bits {
		if b.LUT == lut && b.Row == row {
			return b
		}
	}
	t.Fatalf("no bit for lut %d row %d", lut, row)
	return Bit{}
}

// TestConstantFedChain drives a LUT from const0, whose constant output
// feeds the next LUT, whose buffer output feeds an inverter: the
// fixpoint must cascade — every key bit in the chain is leaked or dead,
// with the right provenance.
func TestConstantFedChain(t *testing.T) {
	b := newNet(4)
	a := b.pi("a")
	l1 := b.lut(0x1, 0)     // reads const0: row0 selected, mask -> const1
	l2 := b.lut(0x8, l1, a) // in0 stuck at 1: f = a (buffer)
	l3 := b.lut(0x1, l2)    // inverter of a buffer of a
	b.po("y", l3)
	rep := analyze(t, b.ln)

	if got := bitOf(t, rep, l1, 0); got.Class != Leaked || got.Cause != CauseConstInputs || got.Value != true {
		t.Errorf("l1 row0 = %+v, want leaked const-fed value=true", got)
	}
	if got := bitOf(t, rep, l1, 1); got.Class != Dead || got.Cause != CauseUnselectable {
		t.Errorf("l1 row1 = %+v, want dead unselectable", got)
	}
	for _, row := range []int{1, 3} {
		if got := bitOf(t, rep, l2, row); got.Class != Leaked || got.Cause != CauseSingleInput {
			t.Errorf("l2 row%d = %+v, want leaked single-input", row, got)
		}
	}
	for _, row := range []int{0, 2} {
		if got := bitOf(t, rep, l2, row); got.Class != Dead || got.Cause != CauseUnselectable {
			t.Errorf("l2 row%d = %+v, want dead unselectable", row, got)
		}
	}
	for row := 0; row < 2; row++ {
		if got := bitOf(t, rep, l3, row); got.Class != Leaked || got.Cause != CauseSingleInput {
			t.Errorf("l3 row%d = %+v, want leaked single-input", row, got)
		}
	}
	if rep.EffectiveKeyBits != 0 {
		t.Errorf("EffectiveKeyBits = %d, want 0 (whole chain degenerate)", rep.EffectiveKeyBits)
	}
	if rep.Iterations < 2 {
		t.Errorf("Iterations = %d, want >= 2 (last round proves stability)", rep.Iterations)
	}
	checkFlipDeadSound(t, b.ln, rep)
	checkLeakedValues(t, b.ln, rep)
}

// TestBufferReducibleMask feeds a LUT the same net twice (directly and
// through a leaked buffer): the duplicate-input dedup must kill the
// off-diagonal rows, and here the surviving diagonal of an XOR mask
// collapses to a constant.
func TestBufferReducibleMask(t *testing.T) {
	b := newNet(4)
	a := b.pi("a")
	buf := b.lut(0x2, a)     // buffer of a
	x := b.lut(0x6, a, buf)  // XOR(a, buffer(a)) == const0
	keep := b.lut(0x6, a, x) // XOR(a, const0) == a: cascades once more
	b.po("y", keep)

	rep := analyze(t, b.ln)
	for _, row := range []int{0, 3} {
		if got := bitOf(t, rep, x, row); got.Class != Leaked || got.Cause != CauseConstMask {
			t.Errorf("x row%d = %+v, want leaked constant-mask", row, got)
		}
	}
	for _, row := range []int{1, 2} {
		if got := bitOf(t, rep, x, row); got.Class != Dead || got.Cause != CauseUnselectable {
			t.Errorf("x row%d = %+v, want dead unselectable (duplicate-input diagonal)", row, got)
		}
	}
	// keep's in1 resolved to const0, so only rows 0 and 1 are live and
	// the function is the buffer f=a again.
	for _, row := range []int{0, 1} {
		if got := bitOf(t, rep, keep, row); got.Class != Leaked || got.Cause != CauseSingleInput {
			t.Errorf("keep row%d = %+v, want leaked single-input", row, got)
		}
	}
	if rep.EffectiveKeyBits != 0 {
		t.Errorf("EffectiveKeyBits = %d, want 0", rep.EffectiveKeyBits)
	}
	checkFlipDeadSound(t, b.ln, rep)
	checkLeakedValues(t, b.ln, rep)
}

// TestUnobservableLUT: a LUT with no path to any PO or FF D input is
// dead wholesale; the same LUT kept reachable through an FF D cone is
// not (scan model: FF D inputs are observed points).
func TestUnobservableLUT(t *testing.T) {
	b := newNet(4)
	a := b.pi("a")
	bb := b.pi("b")
	dangling := b.lut(0x6, a, bb)
	live := b.lut(0x8, a, bb)
	b.po("y", live)
	rep := analyze(t, b.ln)
	for row := 0; row < 4; row++ {
		if got := bitOf(t, rep, dangling, row); got.Class != Dead || got.Cause != CauseUnobservable {
			t.Errorf("dangling row%d = %+v, want dead unobservable", row, got)
		}
		if got := bitOf(t, rep, live, row); got.Class != Opaque {
			t.Errorf("live row%d = %+v, want opaque", row, got)
		}
	}
	if rep.EffectiveKeyBits != 4 {
		t.Errorf("EffectiveKeyBits = %d, want 4", rep.EffectiveKeyBits)
	}

	// Same graph, but the "dangling" LUT drives an FF's D pin: observed.
	b2 := newNet(4)
	a2 := b2.pi("a")
	bb2 := b2.pi("b")
	viaFF := b2.lut(0x6, a2, bb2)
	f := b2.ff(viaFF)
	live2 := b2.lut(0x8, f, bb2)
	b2.po("y", live2)
	rep2 := analyze(t, b2.ln)
	for row := 0; row < 4; row++ {
		if got := bitOf(t, rep2, viaFF, row); got.Class != Opaque {
			t.Errorf("FF-observed row%d = %+v, want opaque", row, got)
		}
	}
}

// TestNoLeakDesign asserts zero false positives: an XOR tree of
// distinct PIs has every row selectable, every LUT observable and
// irreducible — the effective key must equal the full key.
func TestNoLeakDesign(t *testing.T) {
	b := newNet(4)
	a := b.pi("a")
	c := b.pi("b")
	d := b.pi("c")
	x := b.lut(0x6, a, c)
	y := b.lut(0x6, x, d)
	b.po("y", y)
	rep := analyze(t, b.ln)
	if rep.LeakedBits != 0 || rep.DeadBits != 0 {
		t.Fatalf("false positives on clean design: leaked=%d dead=%d", rep.LeakedBits, rep.DeadBits)
	}
	if rep.EffectiveKeyBits != rep.KeyBits || rep.KeyBits != 8 {
		t.Fatalf("EffectiveKeyBits=%d KeyBits=%d, want 8/8", rep.EffectiveKeyBits, rep.KeyBits)
	}
	if len(rep.Removals) != 0 {
		t.Fatalf("false removal candidates: %+v", rep.Removals)
	}
	if len(rep.FixedKey()) != 0 {
		t.Fatalf("FixedKey on clean design = %v, want empty", rep.FixedKey())
	}
}

// TestRemovalPairs: structurally identical cones must match with
// Structural=true; a complementary cone matches with Inverted=true.
func TestRemovalPairs(t *testing.T) {
	b := newNet(4)
	a := b.pi("a")
	c := b.pi("b")
	l1 := b.lut(0x8, a, c) // AND
	l2 := b.lut(0x8, a, c) // identical AND
	l3 := b.lut(0x7, a, c) // NAND = inverted AND
	b.po("y1", l1)
	b.po("y2", l2)
	b.po("y3", l3)
	rep := analyze(t, b.ln)
	want := map[int32]Removal{
		l2: {Node: l2, EquivTo: l1, Structural: true},
		l3: {Node: l3, EquivTo: l1, Inverted: true},
	}
	if len(rep.Removals) != len(want) {
		t.Fatalf("Removals = %+v, want %d entries", rep.Removals, len(want))
	}
	for _, r := range rep.Removals {
		if w, ok := want[r.Node]; !ok || r != w {
			t.Errorf("removal %+v, want %+v", r, w)
		}
	}
	// Removal candidates are evidence, not dead bits: all three ANDs
	// still count toward the effective key.
	if rep.EffectiveKeyBits != rep.KeyBits {
		t.Errorf("EffectiveKeyBits=%d, want %d (removals are not priced)",
			rep.EffectiveKeyBits, rep.KeyBits)
	}
}

// TestRemovalEarliestTarget pins which earlier net a removal candidate
// names: the earliest registered one. An unobservable duplicate is
// registered but never displaces the earlier equal net, and a LUT that
// matched an earlier net inverted is not registered, so a later copy of
// it matches that earlier net inverted too.
func TestRemovalEarliestTarget(t *testing.T) {
	b := newNet(4)
	a := b.pi("a")
	c := b.pi("b")
	and1 := b.lut(0x8, a, c)
	and2 := b.lut(0x8, a, c) // unobservable: registered, not a candidate
	nand1 := b.lut(0x7, a, c)
	and3 := b.lut(0x8, a, c)
	nand2 := b.lut(0x7, a, c)
	b.po("y1", and1)
	b.po("y2", nand1)
	b.po("y3", and3)
	b.po("y4", nand2)
	rep := analyze(t, b.ln)
	want := []Removal{
		{Node: nand1, EquivTo: and1, Inverted: true},
		{Node: and3, EquivTo: and1, Structural: true},
		{Node: nand2, EquivTo: and1, Inverted: true},
	}
	if !slices.Equal(rep.Removals, want) {
		t.Errorf("Removals = %+v, want %+v (and2 = %d)", rep.Removals, want, and2)
	}
}

// TestAnalyzeRejectsInvalid covers the error paths.
func TestAnalyzeRejectsInvalid(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Fatal("nil network: want error")
	}
	bad := &techmap.LUTNetwork{Name: "bad", K: 4}
	bad.Nodes = append(bad.Nodes, techmap.LNode{Kind: techmap.LLUT, Mask: 1, In: []int32{5}})
	if _, err := Analyze(bad, Options{}); err == nil {
		t.Fatal("invalid network: want error")
	}
}

// checkFlipDeadSound flips every dead bit in the masks and exhaustively
// simulates both networks: observable behavior must be identical — the
// definition of a dead bit.
func checkFlipDeadSound(t *testing.T, ln *techmap.LUTNetwork, rep *Report) {
	t.Helper()
	flipped := *ln
	flipped.Nodes = append([]techmap.LNode(nil), ln.Nodes...)
	for _, bt := range rep.Bits {
		if bt.Class == Dead {
			flipped.Nodes[bt.LUT].Mask ^= 1 << uint(bt.Row)
		}
	}
	if len(ln.PIs) > 16 {
		t.Fatalf("exhaustive check needs <=16 PIs, got %d", len(ln.PIs))
	}
	s1 := techmap.NewLUTSim(ln)
	s2 := techmap.NewLUTSim(&flipped)
	ins := make([]bool, len(ln.PIs))
	for pat := 0; pat < 1<<uint(len(ln.PIs)); pat++ {
		for i := range ins {
			ins[i] = (pat>>uint(i))&1 == 1
		}
		o1, err := s1.EvalChecked(ins)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		o2, err := s2.EvalChecked(ins)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("flipping dead bits changed output %d at pattern %d", i, pat)
			}
		}
	}
}

// checkLeakedValues asserts every leaked bit's reported value matches
// the programmed mask — the zero-false-leaks contract.
func checkLeakedValues(t *testing.T, ln *techmap.LUTNetwork, rep *Report) {
	t.Helper()
	for _, bt := range rep.Bits {
		truth := ln.Nodes[bt.LUT].Mask&(1<<uint(bt.Row)) != 0
		if bt.Value != truth {
			t.Fatalf("bit lut=%d row=%d reports value %v, mask says %v", bt.LUT, bt.Row, bt.Value, truth)
		}
		if bt.Class == Leaked && bt.Value != truth {
			t.Fatalf("leaked bit lut=%d row=%d wrong", bt.LUT, bt.Row)
		}
	}
	fk := rep.FixedKey()
	if len(fk) != rep.LeakedBits+rep.DeadBits {
		t.Fatalf("FixedKey has %d entries, want %d", len(fk), rep.LeakedBits+rep.DeadBits)
	}
}

// removalCandidatesReference is the removal pass as first written: one
// signature slice per node, a streaming SHA-256 per cone hash, and a
// first-seen map keyed by the packed signature words. The rewrite must
// report exactly what it reports.
func removalCandidatesReference(ln *techmap.LUTNetwork, val []nval, observable []bool, rounds int, seed int64) []Removal {
	n := len(ln.Nodes)
	sigs := make([][]uint64, n)
	for i := range sigs {
		sigs[i] = make([]uint64, rounds)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ee1))
	var ibuf [techmap.MaxK]uint64
	for round := 0; round < rounds; round++ {
		for i := range ln.Nodes {
			nd := &ln.Nodes[i]
			var w uint64
			switch nd.Kind {
			case techmap.LConst1:
				w = ^uint64(0)
			case techmap.LInput, techmap.LFF:
				w = rng.Uint64()
			case techmap.LLUT:
				ins := ibuf[:len(nd.In)]
				for k, in := range nd.In {
					ins[k] = sigs[in][round]
				}
				w = techmap.EvalMaskWords(nd.Mask, ins)
			}
			sigs[i][round] = w
		}
	}
	chash := make([][sha256.Size]byte, n)
	var hbuf [8]byte
	for i := range ln.Nodes {
		nd := &ln.Nodes[i]
		h := sha256.New()
		h.Write([]byte{byte(nd.Kind)})
		switch nd.Kind {
		case techmap.LInput, techmap.LFF:
			binary.LittleEndian.PutUint64(hbuf[:], uint64(i))
			h.Write(hbuf[:])
		case techmap.LLUT:
			binary.LittleEndian.PutUint64(hbuf[:], nd.Mask)
			h.Write(hbuf[:])
			for _, in := range nd.In {
				h.Write(chash[in][:])
			}
		}
		h.Sum(chash[i][:0])
	}
	sigKey := func(id int32, inv bool) string {
		b := make([]byte, 0, rounds*8)
		for _, w := range sigs[id] {
			if inv {
				w = ^w
			}
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return string(b)
	}
	first := make(map[string]int32)
	var out []Removal
	for i := range ln.Nodes {
		nd := &ln.Nodes[i]
		id := int32(i)
		switch nd.Kind {
		case techmap.LInput, techmap.LFF, techmap.LLUT:
		default:
			continue
		}
		isCand := nd.Kind == techmap.LLUT && observable[i] &&
			!val[i].isConst && val[i].net == id && !val[i].neg
		if isCand {
			if j, ok := first[sigKey(id, false)]; ok {
				out = append(out, Removal{Node: id, EquivTo: j, Structural: chash[id] == chash[j]})
				continue
			}
			if j, ok := first[sigKey(id, true)]; ok {
				out = append(out, Removal{Node: id, EquivTo: j, Inverted: true})
				continue
			}
		}
		if nd.Kind != techmap.LLUT || (val[i].net == id && !val[i].isConst) {
			if _, ok := first[sigKey(id, false)]; !ok {
				first[sigKey(id, false)] = id
			}
		}
	}
	return out
}

// randomNet builds a topological network over few inputs, so equal and
// inverted functions (and the duplicate-signature runs the removal
// index groups) are common.
func randomNet(rng *rand.Rand, k int) *techmap.LUTNetwork {
	b := newNet(k)
	ids := []int32{0, 1}
	for i := 0; i < 1+rng.Intn(3); i++ {
		ids = append(ids, b.pi(fmt.Sprint("i", i)))
	}
	var ffs []int32
	for i := 0; i < rng.Intn(3); i++ {
		// The D input is patched below, once LUTs exist.
		id := b.ff(0)
		ffs = append(ffs, id)
		ids = append(ids, id)
	}
	for i := 0; i < 4+rng.Intn(40); i++ {
		ar := 1 + rng.Intn(k)
		ins := make([]int32, ar)
		for j := range ins {
			ins[j] = ids[rng.Intn(len(ids))]
		}
		ids = append(ids, b.lut(rng.Uint64()&(1<<(1<<uint(ar))-1), ins...))
	}
	for _, ff := range ffs {
		b.ln.Nodes[ff].In[0] = ids[rng.Intn(len(ids))]
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		b.po(fmt.Sprint("o", i), ids[rng.Intn(len(ids))])
	}
	return b.ln
}

// TestRemovalCandidatesMatchReference compares the removal pass with
// the reference on random networks at one, two and four signature
// rounds (one round makes chance collisions frequent).
func TestRemovalCandidatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	found, inverted := 0, 0
	for it := 0; it < 600; it++ {
		ln := randomNet(rng, 2+rng.Intn(3))
		if err := ln.Validate(); err != nil {
			t.Fatalf("net %d: %v", it, err)
		}
		val, _, _ := infer(ln)
		obs := markObservable(ln)
		for _, rounds := range []int{1, 2, 4} {
			seed := rng.Int63()
			got := removalCandidates(ln, val, obs, rounds, seed)
			want := removalCandidatesReference(ln, val, obs, rounds, seed)
			if !slices.Equal(got, want) {
				t.Fatalf("net %d, %d rounds:\n  got  %+v\n  want %+v", it, rounds, got, want)
			}
			found += len(got)
			for _, r := range got {
				if r.Inverted {
					inverted++
				}
			}
		}
	}
	if found == 0 || inverted == 0 {
		t.Fatalf("random networks produced %d removals (%d inverted); the comparison is vacuous", found, inverted)
	}
}
