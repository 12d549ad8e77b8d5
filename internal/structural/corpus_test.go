package structural_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"alice/internal/bench"
	"alice/internal/core"
	"alice/internal/openfpga"
	"alice/internal/rtl"
	"alice/internal/structural"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// goldenCorpus pins Analyze's complete output (every bit's class, cause
// and value, every removal candidate, the fixpoint round count) over
// the characterized fabrics of every corpus benchmark under cfg1 and
// cfg2, captured before the removal pass was rewritten around flat
// signatures and a sorted signature index. The rewrite must keep every
// report identical.
var goldenCorpus = map[string]string{
	"des3":    "fabrics=254 removals=57688 hash=754899dd8b2df96e",
	"fir":     "fabrics=3 removals=4 hash=32883f3dd443d32f",
	"iir":     "fabrics=2 removals=21 hash=8aac98003dee7fde",
	"sha256":  "fabrics=1 removals=1 hash=283afd7bab4e196a",
	"sasc":    "fabrics=1 removals=26 hash=4d6293c21eba0710",
	"usb_phy": "fabrics=3 removals=8 hash=675ead70ae5d050e",
	"gcd":     "fabrics=164 removals=252 hash=75b8f2bfe47ed07b",
}

// corpusFabrics characterizes every cluster of one benchmark under cfg1
// and cfg2, as the flow does before selection, and returns the distinct
// fabrics in candidate order. The cache makes a cluster shared by both
// configurations one fabric.
func corpusFabrics(tb testing.TB, b bench.Benchmark) []*openfpga.Fabric {
	tb.Helper()
	ctx := context.Background()
	ast, err := verilog.Parse(b.Source())
	if err != nil {
		tb.Fatal(err)
	}
	cache := core.NewCharacterizationCache()
	seen := make(map[*openfpga.Fabric]bool)
	var out []*openfpga.Fabric
	for _, cfg := range []*core.Config{core.Cfg1(), core.Cfg2()} {
		cfg.SelectedOutputs = b.SelectedOutputs
		d, err := rtl.Elaborate(ast, cfg.Top)
		if err != nil {
			tb.Fatal(err)
		}
		df, err := rtl.NewDataflow(ctx, d)
		if err != nil {
			tb.Fatal(err)
		}
		fr, err := core.FilterModules(ctx, d, df, cfg)
		if err != nil || len(fr.Candidates) == 0 {
			continue // e.g. iir under cfg1: no candidate, no fabric
		}
		clusters, err := core.IdentifyClusters(ctx, fr.Candidates, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		cands, err := core.CharacterizeClusters(ctx, d, clusters, cfg, core.CharacterizeOptions{
			Parallelism: runtime.GOMAXPROCS(0),
			Cache:       cache,
		})
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range cands {
			if c.Fabric != nil && !seen[c.Fabric] {
				seen[c.Fabric] = true
				out = append(out, c.Fabric)
			}
		}
	}
	return out
}

// fingerprintReports hashes every field of a sequence of reports.
func fingerprintReports(reps []*structural.Report) string {
	h := sha256.New()
	var buf []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	removals := 0
	for _, r := range reps {
		buf = buf[:0]
		put(int64(r.KeyBits), int64(r.LeakedBits), int64(r.DeadBits), int64(r.OpaqueBits),
			int64(r.EffectiveKeyBits), int64(r.Iterations), int64(len(r.Bits)), int64(len(r.Removals)))
		for _, b := range r.Bits {
			put(int64(b.LUT), int64(b.Row), int64(b.Class), int64(b.Cause), b2i(b.Value))
		}
		for _, m := range r.Removals {
			put(int64(m.Node), int64(m.EquivTo), b2i(m.Inverted), b2i(m.Structural))
		}
		h.Write(buf)
		removals += len(r.Removals)
	}
	return fmt.Sprintf("fabrics=%d removals=%d hash=%s",
		len(reps), removals, hex.EncodeToString(h.Sum(nil)[:8]))
}

// TestCorpusAnalyzeGolden runs Analyze, with the selection stage's
// options, over every corpus benchmark's characterized fabrics and
// compares the reports' fingerprint with the pinned one.
func TestCorpusAnalyzeGolden(t *testing.T) {
	seed := core.DefaultConfig().Seed
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			var reps []*structural.Report
			for _, f := range corpusFabrics(t, b) {
				rep, err := structural.Analyze(f.LUTs, structural.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, rep)
			}
			got := fingerprintReports(reps)
			if want := goldenCorpus[b.Name]; got != want {
				t.Errorf("%s: Analyze fingerprint\n  got  %s\n  want %s", b.Name, got, want)
			}
		})
	}
}

// BenchmarkStructuralAnalyze times Analyze on the largest characterized
// candidate network of des3 and sha256, the two biggest corpus designs.
func BenchmarkStructuralAnalyze(b *testing.B) {
	seed := core.DefaultConfig().Seed
	for _, name := range []string{"des3", "sha256"} {
		bm, _ := bench.ByName(name)
		var ln *techmap.LUTNetwork
		for _, f := range corpusFabrics(b, bm) {
			if ln == nil || len(f.LUTs.Nodes) > len(ln.Nodes) {
				ln = f.LUTs
			}
		}
		b.Run(fmt.Sprintf("%s/luts=%d", name, ln.NumLUTs()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := structural.Analyze(ln, structural.Options{Seed: seed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
