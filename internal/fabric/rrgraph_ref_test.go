package fabric

import (
	"slices"
	"testing"
)

// refRRGraph is the routing-resource graph as the reference builder
// produces it: per-node In and Out lists and coordinate maps for the
// pin and pad accessors.
type refRRGraph struct {
	Arch  Arch
	Nodes []RRNode
	In    [][]int32
	Out   [][]int32

	hwire map[[3]int]int32
	vwire map[[3]int]int32
	opin  map[[3]int]int32
	ipin  map[[3]int]int32
	ioin  map[[2]int]int32
	ioout map[[2]int]int32
}

// buildRRGraphReference is the map-based RR-graph builder the flat
// BuildRRGraph replaced: node ids come from construction order and are
// remembered in coordinate maps, In lists grow by append, and Out is
// the full forward adjacency derived from In.
func buildRRGraphReference(a Arch) *refRRGraph {
	g := &refRRGraph{
		Arch:  a,
		hwire: make(map[[3]int]int32),
		vwire: make(map[[3]int]int32),
		opin:  make(map[[3]int]int32),
		ipin:  make(map[[3]int]int32),
		ioin:  make(map[[2]int]int32),
		ioout: make(map[[2]int]int32),
	}
	add := func(n RRNode) int32 {
		id := int32(len(g.Nodes))
		g.Nodes = append(g.Nodes, n)
		return id
	}
	W, cw := a.W, a.ChannelWidth
	// Wires.
	for y := 0; y <= W; y++ {
		for x := 0; x < W; x++ {
			for t := 0; t < cw; t++ {
				g.hwire[[3]int{x, y, t}] = add(RRNode{RRHWire, x, y, t})
			}
		}
	}
	for x := 0; x <= W; x++ {
		for y := 0; y < W; y++ {
			for t := 0; t < cw; t++ {
				g.vwire[[3]int{x, y, t}] = add(RRNode{RRVWire, x, y, t})
			}
		}
	}
	// CLB pins.
	for x := 0; x < W; x++ {
		for y := 0; y < W; y++ {
			for k := 0; k < a.BLEsPerCLB; k++ {
				g.opin[[3]int{x, y, k}] = add(RRNode{RROPin, x, y, k})
			}
			for k := 0; k < a.CLBInputs; k++ {
				g.ipin[[3]int{x, y, k}] = add(RRNode{RRIPin, x, y, k})
			}
		}
	}
	// I/O pads: tile index 0..W-1 on the left edge, W..2W-1 on the right.
	for tile := 0; tile < a.IOTiles(); tile++ {
		for gp := 0; gp < a.GPIOPerTile; gp++ {
			g.ioin[[2]int{tile, gp}] = add(RRNode{RRIOIn, tile, 0, gp})
			g.ioout[[2]int{tile, gp}] = add(RRNode{RRIOOut, tile, 0, gp})
		}
	}

	g.In = make([][]int32, len(g.Nodes))
	edge := func(from, to int32) { g.In[to] = append(g.In[to], from) }

	// Switch boxes: at corner (x,y), same-track wires in all four
	// directions are mutually connected.
	for x := 0; x <= W; x++ {
		for y := 0; y <= W; y++ {
			for t := 0; t < cw; t++ {
				var near []int32
				if x > 0 {
					near = append(near, g.hwire[[3]int{x - 1, y, t}])
				}
				if x < W {
					near = append(near, g.hwire[[3]int{x, y, t}])
				}
				if y > 0 {
					near = append(near, g.vwire[[3]int{x, y - 1, t}])
				}
				if y < W {
					near = append(near, g.vwire[[3]int{x, y, t}])
				}
				for _, a1 := range near {
					for _, b1 := range near {
						if a1 != b1 {
							edge(a1, b1)
						}
					}
				}
			}
		}
	}
	// Connection blocks: OPins drive all tracks of the four adjacent
	// channels; all tracks of those channels can drive each IPin.
	for x := 0; x < W; x++ {
		for y := 0; y < W; y++ {
			var wires []int32
			for t := 0; t < cw; t++ {
				wires = append(wires,
					g.hwire[[3]int{x, y, t}],     // channel below
					g.hwire[[3]int{x, y + 1, t}], // channel above
					g.vwire[[3]int{x, y, t}],     // channel left
					g.vwire[[3]int{x + 1, y, t}]) // channel right
			}
			for k := 0; k < a.BLEsPerCLB; k++ {
				op := g.opin[[3]int{x, y, k}]
				for _, w := range wires {
					edge(op, w)
				}
			}
			for k := 0; k < a.CLBInputs; k++ {
				ip := g.ipin[[3]int{x, y, k}]
				for _, w := range wires {
					edge(w, ip)
				}
			}
		}
	}
	// I/O tiles: left tiles touch vertical channel x=0 at row y=tile,
	// right tiles touch channel x=W.
	for tile := 0; tile < a.IOTiles(); tile++ {
		chanX, row := 0, tile
		if tile >= W {
			chanX, row = W, tile-W
		}
		for gp := 0; gp < a.GPIOPerTile; gp++ {
			in := g.ioin[[2]int{tile, gp}]
			out := g.ioout[[2]int{tile, gp}]
			for t := 0; t < cw; t++ {
				w := g.vwire[[3]int{chanX, row, t}]
				edge(in, w)
				edge(w, out)
			}
		}
	}

	g.Out = make([][]int32, len(g.Nodes))
	for to, ins := range g.In {
		for _, from := range ins {
			g.Out[from] = append(g.Out[from], int32(to))
		}
	}
	return g
}

// TestRRGraphMatchesReference checks the flat builder against the
// reference builder across grid widths and fabric families: the same
// nodes, every In list with the same content and order (so every mux
// selector keeps its meaning), the same pin and pad ids, and wire
// successors equal to the reference Out lists filtered to wires.
func TestRRGraphMatchesReference(t *testing.T) {
	var archs []Arch
	for _, w := range []int{1, 2, 3, 5, 8, 13, 20} {
		archs = append(archs, NewArch(w))
	}
	for _, p := range []Params{{LUTSize: 3}, {LUTSize: 6, BLEsPerCLB: 8}, {ChannelWidth: 7}} {
		for _, w := range []int{1, 2, 4, 7} {
			archs = append(archs, p.At(w))
		}
	}
	for _, a := range archs {
		t.Run(a.FullName(), func(t *testing.T) {
			g, ref := BuildRRGraph(a), buildRRGraphReference(a)
			if !slices.Equal(g.Nodes, ref.Nodes) {
				t.Fatalf("nodes differ: %d vs reference %d", len(g.Nodes), len(ref.Nodes))
			}
			for n := range ref.Nodes {
				if !slices.Equal(g.In[n], ref.In[n]) {
					t.Fatalf("In[%s] = %v, reference %v", ref.Nodes[n], g.In[n], ref.In[n])
				}
				if cap(g.In[n]) != len(g.In[n]) {
					t.Fatalf("In[%s] has capacity %d beyond its %d entries", ref.Nodes[n], cap(g.In[n]), len(g.In[n]))
				}
				var wires []int32
				for _, to := range ref.Out[n] {
					if k := ref.Nodes[to].Kind; k == RRHWire || k == RRVWire {
						wires = append(wires, to)
					}
				}
				if got := g.WireOut(int32(n)); !slices.Equal(got, wires) {
					t.Fatalf("WireOut(%s) = %v, reference %v", ref.Nodes[n], got, wires)
				}
			}
			for x := 0; x < a.W; x++ {
				for y := 0; y < a.W; y++ {
					for k := 0; k < a.BLEsPerCLB; k++ {
						if got, want := g.OPin(x, y, k), ref.opin[[3]int{x, y, k}]; got != want {
							t.Fatalf("OPin(%d,%d,%d) = %d, reference %d", x, y, k, got, want)
						}
					}
					for k := 0; k < a.CLBInputs; k++ {
						if got, want := g.IPin(x, y, k), ref.ipin[[3]int{x, y, k}]; got != want {
							t.Fatalf("IPin(%d,%d,%d) = %d, reference %d", x, y, k, got, want)
						}
					}
				}
			}
			for tile := 0; tile < a.IOTiles(); tile++ {
				for gp := 0; gp < a.GPIOPerTile; gp++ {
					if got, want := g.IOIn(tile, gp), ref.ioin[[2]int{tile, gp}]; got != want {
						t.Fatalf("IOIn(%d,%d) = %d, reference %d", tile, gp, got, want)
					}
					if got, want := g.IOOut(tile, gp), ref.ioout[[2]int{tile, gp}]; got != want {
						t.Fatalf("IOOut(%d,%d) = %d, reference %d", tile, gp, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkBuildRRGraph measures RR-graph construction at the corpus's
// larger fabric sizes (sha256's 13x13 and des3 cfg2's 20x20).
func BenchmarkBuildRRGraph(b *testing.B) {
	for _, w := range []int{13, 20} {
		a := NewArch(w)
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := BuildRRGraph(a); len(g.Nodes) == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}
