package bitstream

import (
	"fmt"
	"sort"

	"alice/internal/fabric"
	"alice/internal/techmap"
)

// PadName returns the canonical decoded name of a GPIO pad.
func PadName(tile, pin int) string { return fmt.Sprintf("pad%d_%d", tile, pin) }

// bleConfig is the decoded configuration of one BLE.
type bleConfig struct {
	mask uint64
	reg  bool
	byp  bool
	sels []uint64
}

type bleKey struct{ site, slot int }

// decoder reconstructs a LUT network from a parsed configuration.
type decoder struct {
	g    *fabric.RRGraph
	a    fabric.Arch
	cfg  [][]bleConfig
	prev []int32

	out     *techmap.LUTNetwork
	c0      int32
	piOf    map[int]int32
	ffNode  map[bleKey]int32
	lutNode map[bleKey]int32
	onStack map[bleKey]bool
	// pendingFF queues registered BLEs whose D cone is resolved after
	// the main traversal: a register legally breaks combinational
	// cycles, so its input cone must not be expanded while the cycle's
	// readers are still on the recursion stack.
	pendingFF []bleKey
}

// Decode reconstructs the programmed circuit from a bitstream as a LUT
// network. Primary inputs are the pads observed driving logic and
// primary outputs the configured output pads, both ordered by pad index
// and named with PadName.
//
// This is exactly what a foundry attacker holding the fabric netlist
// and a stolen bitstream could compute, and it is what the flow uses to
// prove that fabric + bitstream implements the redacted module.
func Decode(g *fabric.RRGraph, bits *Bits) (*techmap.LUTNetwork, error) {
	a := g.Arch
	if bits.N != Length(g) {
		return nil, fmt.Errorf("bitstream: length %d does not match fabric %s (%d)",
			bits.N, a.Name(), Length(g))
	}
	if len(bits.B) < (bits.N+7)/8 {
		return nil, fmt.Errorf("bitstream: %d bytes cannot hold %d bits", len(bits.B), bits.N)
	}
	c := &cursor{bits: bits}
	d := &decoder{
		g: g, a: a,
		out:     &techmap.LUTNetwork{Name: "decoded", K: a.LUTSize},
		piOf:    make(map[int]int32),
		ffNode:  make(map[bleKey]int32),
		lutNode: make(map[bleKey]int32),
		onStack: make(map[bleKey]bool),
	}

	// CLB section.
	selBits := bleSelBits(a)
	d.cfg = make([][]bleConfig, a.CLBCount())
	for y := 0; y < a.W; y++ {
		for x := 0; x < a.W; x++ {
			arr := make([]bleConfig, a.BLEsPerCLB)
			for slot := 0; slot < a.BLEsPerCLB; slot++ {
				var bc bleConfig
				bc.mask = c.readUint(1 << uint(a.LUTSize))
				bc.reg = c.readUint(1) == 1
				bc.byp = c.readUint(1) == 1
				for i := 0; i < a.LUTSize; i++ {
					bc.sels = append(bc.sels, c.readUint(selBits))
				}
				arr[slot] = bc
			}
			d.cfg[d.site(x, y)] = arr
		}
	}
	// Routing section.
	d.prev = make([]int32, len(g.Nodes))
	for i := range d.prev {
		d.prev[i] = -1
	}
	for id := range g.Nodes {
		nb := muxBits(g, int32(id))
		if nb == 0 {
			continue
		}
		v := c.readUint(nb)
		if v == 0 {
			continue
		}
		if int(v-1) >= len(g.In[id]) {
			return nil, fmt.Errorf("bitstream: node %s selector %d out of range", g.Nodes[id], v)
		}
		d.prev[id] = g.In[id][int(v-1)]
	}

	d.c0 = d.emit(techmap.LNode{Kind: techmap.LConst0})
	d.emit(techmap.LNode{Kind: techmap.LConst1})

	// Input pads: every IOIn reached by a configured path.
	usedPadIn := make(map[int]bool)
	for id := range g.Nodes {
		if d.prev[id] < 0 {
			continue
		}
		root, err := d.trace(int32(id))
		if err != nil {
			return nil, err
		}
		if root >= 0 && g.Nodes[root].Kind == fabric.RRIOIn {
			n := g.Nodes[root]
			usedPadIn[n.X*a.GPIOPerTile+n.K] = true
		}
	}
	var padInKeys []int
	for k := range usedPadIn {
		padInKeys = append(padInKeys, k)
	}
	sort.Ints(padInKeys)
	for _, k := range padInKeys {
		id := d.emit(techmap.LNode{Kind: techmap.LInput})
		d.out.PIs = append(d.out.PIs, id)
		d.out.PINames = append(d.out.PINames, PadName(k/a.GPIOPerTile, k%a.GPIOPerTile))
		d.piOf[k] = id
	}

	// Outputs: configured IOOut pads in pad order.
	type poPad struct {
		key int
		rr  int32
	}
	var pos []poPad
	for id := range g.Nodes {
		n := g.Nodes[id]
		if n.Kind == fabric.RRIOOut && d.prev[id] >= 0 {
			pos = append(pos, poPad{n.X*a.GPIOPerTile + n.K, int32(id)})
		}
	}
	sort.Slice(pos, func(i, j int) bool { return pos[i].key < pos[j].key })
	for _, pp := range pos {
		root, err := d.trace(pp.rr)
		if err != nil {
			return nil, err
		}
		if root < 0 {
			return nil, fmt.Errorf("bitstream: output pad %d configured but unrouted", pp.key)
		}
		src, err := d.sourceNode(root)
		if err != nil {
			return nil, err
		}
		d.out.POs = append(d.out.POs, src)
		d.out.PONames = append(d.out.PONames, PadName(pp.key/a.GPIOPerTile, pp.key%a.GPIOPerTile))
	}
	if err := d.resolvePendingFFs(); err != nil {
		return nil, err
	}
	return d.out, d.out.Validate()
}

func (d *decoder) site(x, y int) int { return y*d.a.W + x }

func (d *decoder) emit(n techmap.LNode) int32 {
	id := int32(len(d.out.Nodes))
	d.out.Nodes = append(d.out.Nodes, n)
	return id
}

// trace walks a configured sink back to its root (OPin or IOIn), or -1
// when the path is unconfigured.
func (d *decoder) trace(nd int32) (int32, error) {
	steps := 0
	for {
		k := d.g.Nodes[nd].Kind
		if k == fabric.RROPin || k == fabric.RRIOIn {
			return nd, nil
		}
		p := d.prev[nd]
		if p < 0 {
			return -1, nil
		}
		nd = p
		steps++
		if steps > len(d.g.Nodes) {
			return -1, fmt.Errorf("bitstream: routing loop at %s", d.g.Nodes[nd])
		}
	}
}

// sourceNode converts a routing root into a LUT-network node.
func (d *decoder) sourceNode(rr int32) (int32, error) {
	n := d.g.Nodes[rr]
	switch n.Kind {
	case fabric.RRIOIn:
		return d.piOf[n.X*d.a.GPIOPerTile+n.K], nil
	case fabric.RROPin:
		return d.bleOut(d.site(n.X, n.Y), n.K)
	}
	return -1, fmt.Errorf("bitstream: unexpected source %s", n)
}

// resolveSel converts one crossbar selector value to a node.
func (d *decoder) resolveSel(siteIdx int, sel uint64) (int32, error) {
	if sel == 0 {
		return d.c0, nil
	}
	if int(sel) <= d.a.CLBInputs {
		pin := int(sel) - 1
		x, y := siteIdx%d.a.W, siteIdx/d.a.W
		root, err := d.trace(d.g.IPin(x, y, pin))
		if err != nil {
			return -1, err
		}
		if root < 0 {
			return d.c0, nil // unconnected pin reads 0
		}
		return d.sourceNode(root)
	}
	slot := int(sel) - d.a.CLBInputs - 1
	if slot >= d.a.BLEsPerCLB {
		return -1, fmt.Errorf("bitstream: crossbar selector out of range")
	}
	return d.bleOut(siteIdx, slot)
}

// bleOut returns the node representing a BLE's output, building it (and
// its cone) on demand.
func (d *decoder) bleOut(siteIdx, slot int) (int32, error) {
	key := bleKey{siteIdx, slot}
	bc := d.cfg[siteIdx][slot]
	if bc.reg {
		if id, ok := d.ffNode[key]; ok {
			return id, nil
		}
		id := d.emit(techmap.LNode{Kind: techmap.LFF, In: []int32{-1}})
		d.out.FFs = append(d.out.FFs, id)
		d.ffNode[key] = id
		d.pendingFF = append(d.pendingFF, key)
		return id, nil
	}
	return d.decodeLUT(key, bc)
}

// resolvePendingFFs decodes the D-input cones of all registered BLEs
// discovered during traversal (including ones discovered while
// draining). The cones emit in post-order, so combinational nodes stay
// topologically ordered; only FF D pointers may reference later ids,
// which the network representation permits.
func (d *decoder) resolvePendingFFs() error {
	for i := 0; i < len(d.pendingFF); i++ {
		key := d.pendingFF[i]
		bc := d.cfg[key.site][key.slot]
		id := d.ffNode[key]
		var din int32
		var err error
		if bc.byp {
			din, err = d.resolveSel(key.site, bc.sels[0])
		} else {
			din, err = d.decodeLUT(key, bc)
		}
		if err != nil {
			return err
		}
		d.out.Nodes[id].In[0] = din
	}
	d.pendingFF = nil
	return nil
}

// decodeLUT materializes the LUT of a BLE.
func (d *decoder) decodeLUT(key bleKey, bc bleConfig) (int32, error) {
	if id, ok := d.lutNode[key]; ok {
		return id, nil
	}
	if d.onStack[key] {
		return -1, fmt.Errorf("bitstream: combinational loop through CLB site %d slot %d", key.site, key.slot)
	}
	d.onStack[key] = true
	defer delete(d.onStack, key)
	var ins []int32
	for i := 0; i < d.a.LUTSize; i++ {
		in, err := d.resolveSel(key.site, bc.sels[i])
		if err != nil {
			return -1, err
		}
		ins = append(ins, in)
	}
	id := d.emit(techmap.LNode{Kind: techmap.LLUT, Mask: bc.mask, In: ins})
	d.lutNode[key] = id
	return id, nil
}
