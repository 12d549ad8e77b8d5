package main

import (
	"context"
	"testing"

	"alice"
	"alice/internal/attack"
)

func TestGateRejectsCorruptedKey(t *testing.T) {
	ln, err := mapTarget(corpusTargets[1].src) // add4
	if err != nil {
		t.Fatal(err)
	}
	res, err := attack.RecoverBitstreamOpts(ln, attack.Options{MaxIters: attack.DefaultMaxIters, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkKey(ln, res.Masks, 1); err != nil {
		t.Fatalf("recovered key rejected: %v", err)
	}
	for id, m := range res.Masks {
		// Inverting a LUT's mask inverts its output, and every LUT of
		// add4 reaches a primary output.
		bad := make(map[int32]uint64, len(res.Masks))
		for k, v := range res.Masks {
			bad[k] = v
		}
		bad[id] = ^m
		if checkKey(ln, bad, 1) == nil {
			t.Fatalf("key with LUT %d inverted passed the gate", id)
		}
	}
}

func TestGateRejectsFlippedBitstreamBit(t *testing.T) {
	b, _ := alice.BenchmarkByName("gcd")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	cfg.ImplementWinner = true
	rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), b.Source())
	if err != nil || rep.Err != nil {
		t.Fatalf("gcd flow: %v %v", err, rep.Err)
	}
	fab := rep.Solution.Fabrics[len(rep.Solution.Fabrics)-1].Fabric // the 3x3 fabric
	if err := checkBitstream(fab, 1); err != nil {
		t.Fatalf("implemented bitstream rejected: %v", err)
	}
	bits := fab.Bits
	caught, flipped := 0, 0
	for i := 0; i < bits.N; i++ {
		if !bits.Get(i) {
			continue // a cleared bit may select nothing the circuit uses
		}
		flipped++
		bits.Set(i, false)
		if checkBitstream(fab, 1) != nil {
			caught++
		}
		bits.Set(i, true)
	}
	if caught == 0 {
		t.Fatalf("none of %d single-bit flips of a set bit was caught", flipped)
	}
	if err := checkBitstream(fab, 1); err != nil {
		t.Fatalf("restored bitstream rejected: %v", err)
	}
	t.Logf("%d of %d set-bit flips caught", caught, flipped)
}
