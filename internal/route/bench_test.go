package route

import (
	"context"
	"testing"

	"alice/internal/fabric"
	"alice/internal/netlist"
	"alice/internal/opt"
	"alice/internal/pack"
	"alice/internal/place"
	"alice/internal/techmap"
)

// benchPlaced builds a deterministic mid-size placed design for the
// router benchmarks: ~200 gates on a WxW fabric.
func benchPlaced(tb testing.TB, w, gates int, seed int64) (*place.Placement, *fabric.RRGraph) {
	tb.Helper()
	bd := netlist.NewBuilder("rbench")
	var pool []int32
	for i := 0; i < 10; i++ {
		pool = append(pool, bd.Input(string(rune('a'+i))))
	}
	var dffs []int32
	for i := 0; i < 6; i++ {
		d := bd.DFF()
		dffs = append(dffs, d)
		pool = append(pool, d)
	}
	idx := 0
	pick := func() int32 { idx = (idx*13 + 7) % len(pool); return pool[idx] }
	for i := 0; i < gates; i++ {
		var id int32
		switch i % 4 {
		case 0:
			id = bd.And(pick(), pick())
		case 1:
			id = bd.Or(pick(), pick())
		case 2:
			id = bd.Xor(pick(), pick())
		default:
			id = bd.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	for _, d := range dffs {
		bd.SetD(d, pick())
	}
	for i := 0; i < 6; i++ {
		bd.Output("o", pick())
	}
	ln, err := techmap.Map(opt.Optimize(bd.N))
	if err != nil {
		tb.Fatal(err)
	}
	arch := fabric.NewArch(w)
	p, err := pack.Pack(ln, arch)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := place.Place(context.Background(), p, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return pl, fabric.BuildRRGraph(arch)
}

// BenchmarkRoute measures one full PathFinder negotiation on a
// mid-size LUT network (the inner loop of full-P&R characterization),
// on an 8x8 fabric (channel width 24) and on a 20x20 fabric (channel
// width 48, des3 cfg2's size), where wider channels multiply the
// edges each expansion scans.
func BenchmarkRoute(b *testing.B) {
	for _, c := range []struct{ w, gates int }{{8, 200}, {20, 1200}} {
		pl, g := benchPlaced(b, c.w, c.gates, 7)
		b.Run(g.Arch.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt, err := Route(context.Background(), pl, g, 30)
				if err != nil {
					b.Fatal(err)
				}
				if rt.Iterations < 1 {
					b.Fatal("no iterations")
				}
			}
		})
	}
}
