package alice

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// corpusImplFingerprints runs every named corpus design under cfg1
// and cfg2 with the winner implemented and fingerprints each fabric:
// bitstream hash, placement cost, PathFinder iterations and the routed
// critical path. A design without a solution under a configuration
// (iir cfg1, the paper's "(n.a.)" row) records "n.a.".
func corpusImplFingerprints(t *testing.T, designs []string, timingDriven bool) []string {
	t.Helper()
	ctx := context.Background()
	var got []string
	for _, name := range designs {
		b, ok := BenchmarkByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		for ci, cfg := range []*Config{Cfg1(), Cfg2()} {
			cfg.SelectedOutputs = b.SelectedOutputs
			cfg.ImplementWinner = true
			cfg.TimingDriven = timingDriven
			r, err := NewEngine(WithConfig(cfg)).RunSource(ctx, b.Source())
			if err != nil {
				t.Fatalf("%s cfg%d: %v", name, ci+1, err)
			}
			if r.Solution == nil {
				got = append(got, fmt.Sprintf("%s cfg%d n.a.", name, ci+1))
				continue
			}
			if r.Err != nil {
				t.Fatalf("%s cfg%d: %v", name, ci+1, r.Err)
			}
			for _, f := range r.Solution.Fabrics {
				if f.Fabric.Timing == nil || f.Fabric.Timing.Estimated {
					t.Fatalf("%s cfg%d: implemented fabric lacks routed timing", name, ci+1)
				}
				got = append(got, fmt.Sprintf("%s crit=%.4f",
					implFingerprint(fmt.Sprintf("%s cfg%d", name, ci+1), f), f.Fabric.Timing.CritPathNs))
			}
		}
	}
	return got
}

func checkGolden(t *testing.T, what string, got, golden []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(golden, "\n") {
		t.Fatalf("%s implementation deviated from the golden:\ngot:\n%s\nwant:\n%s",
			what, strings.Join(got, "\n"), strings.Join(golden, "\n"))
	}
}

// TestCorpusImplementationGolden pins default-mode place and route of
// every corpus design's winning fabrics under both paper
// configurations: a change to the placer, the RR graph or the router
// that alters any mux selection, placement cost or iteration count
// shows up here.
func TestCorpusImplementationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("implements every corpus winner")
	}
	golden := []string{
		"des3 cfg1 15x15 bits=123836 hash=2aad96e3e6f0f4b6 placecost=2895.0000 routeiters=3 crit=22.3913",
		"des3 cfg1 15x15 bits=123836 hash=7a002768470677eb placecost=2860.0000 routeiters=4 crit=24.2152",
		"des3 cfg2 20x20 bits=251136 hash=12a7c19edb906b47 placecost=5203.0000 routeiters=3 crit=24.0780",
		"fir cfg1 7x7 bits=20642 hash=9c57f83396bfa21d placecost=423.0000 routeiters=3 crit=17.5127",
		"fir cfg2 7x7 bits=20642 hash=154056e15d9f830c placecost=458.0000 routeiters=3 crit=15.8909",
		"iir cfg1 n.a.",
		"iir cfg2 8x8 bits=27840 hash=fbe6a7de7249021f placecost=674.0000 routeiters=4 crit=23.5100",
		"sha256 cfg1 13x13 bits=87868 hash=5b8ffa3c494cffba placecost=2561.0000 routeiters=5 crit=27.2599",
		"sha256 cfg2 13x13 bits=87868 hash=5b8ffa3c494cffba placecost=2561.0000 routeiters=5 crit=27.2599",
		"sasc cfg1 8x8 bits=27840 hash=6d358f24888b609e placecost=574.0000 routeiters=2 crit=12.0200",
		"sasc cfg2 8x8 bits=27840 hash=6d358f24888b609e placecost=574.0000 routeiters=2 crit=12.0200",
		"usb_phy cfg1 5x5 bits=9906 hash=07d9f1dabb298f7d placecost=127.0000 routeiters=1 crit=5.6500",
		"usb_phy cfg1 5x5 bits=9906 hash=31d67e57803799f4 placecost=126.0000 routeiters=3 crit=4.9560",
		"usb_phy cfg2 7x7 bits=20642 hash=157bd78d2dc4dd90 placecost=278.0000 routeiters=3 crit=5.9082",
		"gcd cfg1 4x4 bits=6176 hash=460cbb8e58f1ddbf placecost=140.0000 routeiters=1 crit=8.5620",
		"gcd cfg1 3x3 bits=3272 hash=18628f5ecb8a3627 placecost=55.0000 routeiters=1 crit=2.4423",
		"gcd cfg2 5x5 bits=9906 hash=5b5a9f87252ccc10 placecost=288.0000 routeiters=2 crit=18.2240",
	}
	var names []string
	for _, b := range Benchmarks() {
		names = append(names, b.Name)
	}
	checkGolden(t, "default-mode corpus", corpusImplFingerprints(t, names, false), golden)
}

// TestTimingDrivenImplementationGolden pins criticality-driven place
// and route (the router's timing cost blend) on the small corpus
// designs under both paper configurations.
func TestTimingDrivenImplementationGolden(t *testing.T) {
	golden := []string{
		"gcd cfg1 4x4 bits=6176 hash=4a6f8868d6e9e003 placecost=283.4675 routeiters=3 crit=9.4620",
		"gcd cfg1 3x3 bits=3272 hash=b84aa4ac3a397a90 placecost=115.2966 routeiters=1 crit=2.1166",
		"gcd cfg2 5x5 bits=9906 hash=f6f06767a2c89000 placecost=559.0733 routeiters=2 crit=15.9840",
		"usb_phy cfg1 5x5 bits=9906 hash=9be31b7a6be07165 placecost=254.3791 routeiters=1 crit=3.9700",
		"usb_phy cfg1 5x5 bits=9906 hash=3a5cf3d4c10ba701 placecost=286.9895 routeiters=1 crit=3.9580",
		"usb_phy cfg2 7x7 bits=20642 hash=2ff7cdb73a69b84f placecost=608.7272 routeiters=1 crit=4.4869",
		"sasc cfg1 8x8 bits=27840 hash=82061dd14daccd7e placecost=1211.9372 routeiters=3 crit=11.2100",
		"sasc cfg2 8x8 bits=27840 hash=82061dd14daccd7e placecost=1211.9372 routeiters=3 crit=11.2100",
		"sha256 cfg1 13x13 bits=87868 hash=438d79006265558c placecost=5101.5024 routeiters=6 crit=22.6224",
		"sha256 cfg2 13x13 bits=87868 hash=438d79006265558c placecost=5101.5024 routeiters=6 crit=22.6224",
		"fir cfg1 7x7 bits=20642 hash=cfb4dff34b0364b9 placecost=911.7905 routeiters=4 crit=17.9027",
		"fir cfg2 7x7 bits=20642 hash=a39c589d28531585 placecost=1015.1432 routeiters=3 crit=13.1309",
	}
	got := corpusImplFingerprints(t, []string{"gcd", "usb_phy", "sasc", "sha256", "fir"}, true)
	checkGolden(t, "timing-driven", got, golden)
}
