package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"alice/internal/bitstream"
	"alice/internal/fabric"
	"alice/internal/openfpga"
	"alice/internal/techmap"
	"alice/internal/timing"
)

// TestFanOutStopsDispatch: every slot runs exactly once, and a slot
// returning false stops dispatch, so the slots that ran are a prefix.
func TestFanOutStopsDispatch(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		ran := make([]atomic.Int32, 40)
		fanOut(len(ran), workers, func(i int) bool {
			ran[i].Add(1)
			return true
		})
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("workers %d: slot %d ran %d times", workers, i, n)
			}
		}

		ran = make([]atomic.Int32, 40)
		fanOut(len(ran), workers, func(i int) bool {
			ran[i].Add(1)
			return i != 5
		})
		last := -1
		for i := range ran {
			if ran[i].Load() == 1 {
				if last != i-1 {
					t.Fatalf("workers %d: slots that ran are not a prefix (slot %d after %d)", workers, i, last)
				}
				last = i
			}
		}
		if last < 5 || (workers <= 1 && last != 5) {
			t.Fatalf("workers %d: last slot run %d", workers, last)
		}
	}
}

// implementedCandidate is a solution fabric that already carries a
// bitstream and routed timing, so ImplementSolution only re-checks its
// Fmax floor.
func implementedCandidate(w int, fmax float64) *FabricCandidate {
	return &FabricCandidate{Fabric: &openfpga.Fabric{
		Arch:   fabric.DefaultParams().At(w),
		Bits:   bitstream.NewBits(8),
		Timing: &timing.Report{FmaxMHz: fmax},
	}}
}

// TestImplementSolutionFirstFailureWins: when several fabrics miss the
// floor, the error names the first of them in solution order at every
// pool width.
func TestImplementSolutionFirstFailureWins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FmaxFloorMHz = 300
	for _, par := range []int{1, 8} {
		sol := &Solution{Fabrics: []*FabricCandidate{
			implementedCandidate(3, 500),
			implementedCandidate(4, 100),
			implementedCandidate(5, 200),
		}}
		err := ImplementSolution(context.Background(), sol, cfg, par)
		if !errors.Is(err, ErrBelowFmaxFloor) {
			t.Fatalf("parallelism %d: %v, want ErrBelowFmaxFloor", par, err)
		}
		if !strings.Contains(err.Error(), "implemented fabric 4x4:") {
			t.Errorf("parallelism %d: error does not name the first failing fabric 4x4: %v", par, err)
		}
	}
}

// TestKeyFloorKeepsStructuralError: a fabric whose LUT network fails
// validation cannot be analyzed; under a key floor its rejection must
// carry the analyzer's error and still match ErrBelowKeyFloor.
func TestKeyFloorKeepsStructuralError(t *testing.T) {
	bad := &techmap.LUTNetwork{Name: "bad", K: 4}
	bad.Nodes = append(bad.Nodes, techmap.LNode{Kind: techmap.LLUT, Mask: 1, In: []int32{5}})
	cfg := DefaultConfig()
	cfg.MinEffectiveKeyBits = 1
	for _, par := range []int{1, 8} {
		cands := []FabricCandidate{{Fabric: &openfpga.Fabric{Arch: fabric.DefaultParams().At(2), LUTs: bad}}}
		res, err := SelectEFPGAs(context.Background(), cands, cfg, par)
		if !errors.Is(err, ErrNoValidEFPGA) || !errors.Is(err, ErrBelowKeyFloor) {
			t.Fatalf("parallelism %d: %v, want a key-floor ErrNoValidEFPGA", par, err)
		}
		c := res.Candidates[0]
		if c.Structural != nil {
			t.Fatalf("parallelism %d: an invalid network produced a structural report", par)
		}
		if !errors.Is(c.Err, ErrBelowKeyFloor) {
			t.Errorf("parallelism %d: candidate error %v does not match ErrBelowKeyFloor", par, c.Err)
		}
		if want := "input out of range"; !strings.Contains(fmt.Sprint(c.Err), want) {
			t.Errorf("parallelism %d: candidate error %q lacks the analyzer's cause %q", par, c.Err, want)
		}
	}
}
