package fabric

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestArchCapacities(t *testing.T) {
	a := NewArch(4)
	if a.IOCapacity() != 64 {
		t.Errorf("4x4 I/O capacity = %d, want 64 (paper)", a.IOCapacity())
	}
	if a.LUTCapacity() != 64 {
		t.Errorf("4x4 LUT capacity = %d, want 64", a.LUTCapacity())
	}
	if a.CLBCount() != 16 {
		t.Errorf("CLBs = %d", a.CLBCount())
	}
	if a.Name() != "4x4" {
		t.Errorf("name = %s", a.Name())
	}
	if !a.FitsIO(64) || a.FitsIO(65) {
		t.Error("FitsIO boundary wrong")
	}
	if !a.FitsLUTs(64, 64) || a.FitsLUTs(65, 0) {
		t.Error("FitsLUTs boundary wrong")
	}
	b := NewArch(5)
	if b.IOCapacity() != 80 || b.LUTCapacity() != 100 {
		t.Errorf("5x5: io=%d luts=%d", b.IOCapacity(), b.LUTCapacity())
	}
}

func TestConfigBitsMonotonic(t *testing.T) {
	prev := 0
	for w := 2; w <= 16; w++ {
		bits := NewArch(w).ConfigBits()
		if bits <= prev {
			t.Errorf("ConfigBits(%d) = %d not greater than %d", w, bits, prev)
		}
		prev = bits
	}
}

func TestRRGraphStructure(t *testing.T) {
	a := NewArch(3)
	g := BuildRRGraph(a)
	// Node count: wires + pins + pads.
	wantWires := 2 * (a.W + 1) * a.W * a.ChannelWidth
	wantPins := a.CLBCount() * (a.BLEsPerCLB + a.CLBInputs)
	wantPads := a.IOTiles() * a.GPIOPerTile * 2
	if len(g.Nodes) != wantWires+wantPins+wantPads {
		t.Errorf("nodes = %d, want %d", len(g.Nodes), wantWires+wantPins+wantPads)
	}
	// Every IPin must have incoming edges; every OPin outgoing.
	for x := 0; x < a.W; x++ {
		for y := 0; y < a.W; y++ {
			for k := 0; k < a.CLBInputs; k++ {
				if len(g.In[g.IPin(x, y, k)]) == 0 {
					t.Fatalf("IPin(%d,%d,%d) unreachable", x, y, k)
				}
			}
			for k := 0; k < a.BLEsPerCLB; k++ {
				if len(g.WireOut(g.OPin(x, y, k))) == 0 {
					t.Fatalf("OPin(%d,%d,%d) drives nothing", x, y, k)
				}
			}
		}
	}
	// In and the wire successors must be mutually consistent: every
	// edge into a wire is listed as a wire successor of its driver, and
	// every wire successor lists the driver in its In.
	wireEdges := 0
	for to, ins := range g.In {
		k := g.Nodes[to].Kind
		if k != RRHWire && k != RRVWire {
			continue
		}
		for _, from := range ins {
			if !slices.Contains(g.WireOut(from), int32(to)) {
				t.Fatalf("edge %d->%d missing from WireOut", from, to)
			}
			wireEdges++
		}
	}
	listed := 0
	for from := range g.Nodes {
		for _, to := range g.WireOut(int32(from)) {
			if !slices.Contains(g.In[to], int32(from)) {
				t.Fatalf("wire successor %d->%d missing from In", from, to)
			}
			listed++
		}
	}
	if listed != wireEdges {
		t.Fatalf("WireOut lists %d edges, In has %d edges into wires", listed, wireEdges)
	}
}

// reachable returns the nodes reachable from src: the wires through
// WireOut, and every pin or pad driven by a reached wire.
func reachable(g *RRGraph, src int32) map[int32]bool {
	seen := map[int32]bool{src: true}
	stack := []int32{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nx := range g.WireOut(n) {
			if !seen[nx] {
				seen[nx] = true
				stack = append(stack, nx)
			}
		}
	}
	for to, ins := range g.In {
		for _, from := range ins {
			if seen[from] {
				seen[int32(to)] = true
				break
			}
		}
	}
	return seen
}

// Property: every OPin can reach every IPin of every other CLB through
// wires (full connectivity of the routing fabric).
func TestQuickRRGraphReachability(t *testing.T) {
	a := NewArch(3)
	g := BuildRRGraph(a)
	f := func(sx, sy, tx, ty uint8) bool {
		x1, y1 := int(sx)%a.W, int(sy)%a.W
		x2, y2 := int(tx)%a.W, int(ty)%a.W
		seen := reachable(g, g.OPin(x1, y1, 0))
		return seen[g.IPin(x2, y2, 0)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPadReachability(t *testing.T) {
	a := NewArch(2)
	g := BuildRRGraph(a)
	// Pad-in reaches pad-out across the fabric.
	seen := reachable(g, g.IOIn(0, 0))
	if !seen[g.IOOut(a.IOTiles()-1, a.GPIOPerTile-1)] {
		t.Error("pad-to-pad path missing")
	}
	// PadXY sides.
	if x, _ := g.PadXY(0); x != -1 {
		t.Errorf("left pad x = %d", x)
	}
	if x, _ := g.PadXY(a.W); x != a.W {
		t.Errorf("right pad x = %d", x)
	}
}

// TestParamsRoundTripFixedCW guards the channel-width policy round
// trip: a fixed family width that coincides with the derived value at
// some W must stay fixed through Arch.Params() (and keep its family
// name), while the derived policy maps back to 0.
func TestParamsRoundTripFixedCW(t *testing.T) {
	w := 2
	fixed := Params{ChannelWidth: DefaultChannelWidth(w)}.Normalized()
	a := fixed.At(w)
	if a.CWDerived {
		t.Fatal("fixed channel width marked derived")
	}
	if got := a.Params(); got != fixed {
		t.Errorf("fixed-CW round trip = %+v, want %+v", got, fixed)
	}
	if a.Params().Name() == DefaultParams().Name() {
		t.Errorf("fixed-CW family lost its W suffix: %s", a.Params().Name())
	}
	d := DefaultParams().At(w)
	if !d.CWDerived || d.Params() != DefaultParams() {
		t.Errorf("derived round trip = %+v", d.Params())
	}
	if d.FullName() != d.Name() {
		t.Errorf("default family FullName %q should stay plain", d.FullName())
	}
}
