package fabric

import "fmt"

// RRKind is a routing-resource node kind.
type RRKind uint8

// Routing-resource node kinds.
const (
	RRHWire RRKind = iota // horizontal wire segment
	RRVWire               // vertical wire segment
	RROPin                // CLB (BLE) output pin
	RRIPin                // CLB input pin
	RRIOIn                // pad driving into the fabric (source)
	RRIOOut               // pad driven by the fabric (sink)
)

func (k RRKind) String() string {
	switch k {
	case RRHWire:
		return "hwire"
	case RRVWire:
		return "vwire"
	case RROPin:
		return "opin"
	case RRIPin:
		return "ipin"
	case RRIOIn:
		return "ioin"
	case RRIOOut:
		return "ioout"
	}
	return "?"
}

// RRNode is one routing resource.
type RRNode struct {
	Kind RRKind
	X    int // CLB / channel column
	Y    int // CLB / channel row
	K    int // track, pin index, or GPIO index
}

func (n RRNode) String() string {
	return fmt.Sprintf("%s(%d,%d,%d)", n.Kind, n.X, n.Y, n.K)
}

// RRGraph is the fabric's routing-resource graph. Edges are directed;
// wire segments are modeled as bidirectionally connected node pairs.
//
// Node ids follow construction order: horizontal wires, vertical wires,
// CLB pins (per CLB its BLE outputs, then its inputs), then pads (per
// GPIO its IOIn, then its IOOut). Ids are computed from coordinates, so
// the graph holds no lookup maps, and every adjacency list is a view
// into one flat array.
type RRGraph struct {
	Arch  Arch
	Nodes []RRNode
	// In lists, per node, the nodes that can drive it (its mux inputs).
	// This orientation matches configuration: each node's selected
	// driver is one config choice. Each list is a capacity-clipped view
	// into one backing array.
	In [][]int32

	// wireOff and wireSucc hold the forward wire adjacency in compressed
	// sparse-row form: the wires node n drives are
	// wireSucc[wireOff[n]:wireOff[n+1]], in increasing id order.
	wireOff  []int32
	wireSucc []int32

	vBase   int32 // id of the first vertical wire
	pinBase int32 // id of the first CLB pin
	padBase int32 // id of the first pad
}

// BuildRRGraph constructs the routing-resource graph for an
// architecture: CLB pins, unit-length wire segments, disjoint
// (same-track) switch boxes with full turning, full connection blocks,
// and I/O tiles on the left (x=0) and right (x=W) fabric edges.
func BuildRRGraph(a Arch) *RRGraph {
	W, cw := a.W, a.ChannelWidth
	g := &RRGraph{Arch: a}
	g.vBase = int32((W + 1) * W * cw)
	g.pinBase = 2 * g.vBase
	g.padBase = g.pinBase + int32(a.CLBCount()*(a.BLEsPerCLB+a.CLBInputs))
	n := int(g.padBase) + 2*a.IOTiles()*a.GPIOPerTile

	g.Nodes = make([]RRNode, 0, n)
	for y := 0; y <= W; y++ {
		for x := 0; x < W; x++ {
			for t := 0; t < cw; t++ {
				g.Nodes = append(g.Nodes, RRNode{RRHWire, x, y, t})
			}
		}
	}
	for x := 0; x <= W; x++ {
		for y := 0; y < W; y++ {
			for t := 0; t < cw; t++ {
				g.Nodes = append(g.Nodes, RRNode{RRVWire, x, y, t})
			}
		}
	}
	for x := 0; x < W; x++ {
		for y := 0; y < W; y++ {
			for k := 0; k < a.BLEsPerCLB; k++ {
				g.Nodes = append(g.Nodes, RRNode{RROPin, x, y, k})
			}
			for k := 0; k < a.CLBInputs; k++ {
				g.Nodes = append(g.Nodes, RRNode{RRIPin, x, y, k})
			}
		}
	}
	// I/O pads: tile index 0..W-1 on the left edge, W..2W-1 on the right.
	for tile := 0; tile < a.IOTiles(); tile++ {
		for gp := 0; gp < a.GPIOPerTile; gp++ {
			g.Nodes = append(g.Nodes,
				RRNode{RRIOIn, tile, 0, gp},
				RRNode{RRIOOut, tile, 0, gp})
		}
	}

	// In lists: count each node's drivers, lay the lists out back to
	// back, then fill them in edge-emission order.
	off := make([]int32, n+1)
	g.connect(func(_, to int32) { off[to+1]++ })
	prefixSum(off)
	in := make([]int32, off[n])
	next := make([]int32, n)
	copy(next, off)
	g.connect(func(from, to int32) {
		in[next[to]] = from
		next[to]++
	})
	g.In = make([][]int32, n)
	for i := range g.In {
		g.In[i] = in[off[i]:off[i+1]:off[i+1]]
	}

	// Wire successors, from the In lists of the wires: visiting targets
	// in increasing id order leaves every successor list sorted.
	g.wireOff = make([]int32, n+1)
	wires := g.In[:g.pinBase]
	for _, ins := range wires {
		for _, from := range ins {
			g.wireOff[from+1]++
		}
	}
	prefixSum(g.wireOff)
	g.wireSucc = make([]int32, g.wireOff[n])
	copy(next, g.wireOff)
	for to, ins := range wires {
		for _, from := range ins {
			g.wireSucc[next[from]] = int32(to)
			next[from]++
		}
	}
	return g
}

// prefixSum turns per-slot counts in s[1:] into start offsets.
func prefixSum(s []int32) {
	for i := 1; i < len(s); i++ {
		s[i] += s[i-1]
	}
}

// connect emits every edge of the graph. The emission order is the
// order of each node's In list, and so of its mux selector values.
func (g *RRGraph) connect(edge func(from, to int32)) {
	a := g.Arch
	W, cw := a.W, a.ChannelWidth
	// Switch boxes: at corner (x,y), same-track wires in all four
	// directions are mutually connected.
	var near [4]int32
	for x := 0; x <= W; x++ {
		for y := 0; y <= W; y++ {
			for t := 0; t < cw; t++ {
				k := 0
				if x > 0 {
					near[k] = g.hwire(x-1, y, t)
					k++
				}
				if x < W {
					near[k] = g.hwire(x, y, t)
					k++
				}
				if y > 0 {
					near[k] = g.vwire(x, y-1, t)
					k++
				}
				if y < W {
					near[k] = g.vwire(x, y, t)
					k++
				}
				for _, a1 := range near[:k] {
					for _, b1 := range near[:k] {
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
			for k := 0; k < a.BLEsPerCLB; k++ {
				op := g.OPin(x, y, k)
				for t := 0; t < cw; t++ {
					for _, w := range g.cbWires(x, y, t) {
						edge(op, w)
					}
				}
			}
			for k := 0; k < a.CLBInputs; k++ {
				ip := g.IPin(x, y, k)
				for t := 0; t < cw; t++ {
					for _, w := range g.cbWires(x, y, t) {
						edge(w, ip)
					}
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
			in, out := g.IOIn(tile, gp), g.IOOut(tile, gp)
			for t := 0; t < cw; t++ {
				w := g.vwire(chanX, row, t)
				edge(in, w)
				edge(w, out)
			}
		}
	}
}

// cbWires returns track t of the four channels around the CLB at
// (x, y): below, above, left, right.
func (g *RRGraph) cbWires(x, y, t int) [4]int32 {
	return [4]int32{g.hwire(x, y, t), g.hwire(x, y+1, t), g.vwire(x, y, t), g.vwire(x+1, y, t)}
}

// hwire returns track t of the horizontal segment at column x of
// channel row y.
func (g *RRGraph) hwire(x, y, t int) int32 {
	return int32((y*g.Arch.W+x)*g.Arch.ChannelWidth + t)
}

// vwire returns track t of the vertical segment at row y of channel
// column x.
func (g *RRGraph) vwire(x, y, t int) int32 {
	return g.vBase + int32((x*g.Arch.W+y)*g.Arch.ChannelWidth+t)
}

// WireOut returns the wires node n drives, in increasing id order.
// Pins and pads are left out: they end a routing path, and a search
// reaches its target pin through the target's In list.
func (g *RRGraph) WireOut(n int32) []int32 { return g.wireSucc[g.wireOff[n]:g.wireOff[n+1]] }

// OPin returns the output-pin node of BLE k in the CLB at (x, y).
func (g *RRGraph) OPin(x, y, k int) int32 {
	return g.pinBase + int32((x*g.Arch.W+y)*(g.Arch.BLEsPerCLB+g.Arch.CLBInputs)+k)
}

// IPin returns input-pin node k of the CLB at (x, y).
func (g *RRGraph) IPin(x, y, k int) int32 { return g.OPin(x, y, g.Arch.BLEsPerCLB+k) }

// IOIn returns the fabric-driving pad node of a GPIO.
func (g *RRGraph) IOIn(tile, gpio int) int32 {
	return g.padBase + int32(2*(tile*g.Arch.GPIOPerTile+gpio))
}

// IOOut returns the fabric-driven pad node of a GPIO.
func (g *RRGraph) IOOut(tile, gpio int) int32 { return g.IOIn(tile, gpio) + 1 }

// PadXY returns grid coordinates of an I/O tile for wirelength
// estimates: left tiles at x=-1, right tiles at x=W.
func (g *RRGraph) PadXY(tile int) (int, int) {
	if tile < g.Arch.W {
		return -1, tile
	}
	return g.Arch.W, tile - g.Arch.W
}
