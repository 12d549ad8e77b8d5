package bitstream

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"alice/internal/fabric"
	"alice/internal/pack"
	"alice/internal/place"
	"alice/internal/route"
)

// TestDecodeShortSlice: a bitstream whose byte slice is shorter than
// its declared length is rejected with an error, not a panic.
func TestDecodeShortSlice(t *testing.T) {
	g := fabric.BuildRRGraph(fabric.NewArch(2))
	if _, err := Decode(g, &Bits{N: Length(g), B: make([]byte, 3)}); err == nil {
		t.Fatal("Decode accepted a 3-byte slice for a full-length bitstream")
	}
}

// implementedBits returns the bitstream of a small random network
// packed, placed and routed on g's fabric.
func implementedBits(tb testing.TB, g *fabric.RRGraph) *Bits {
	tb.Helper()
	ctx := context.Background()
	ln := randomKNetwork(rand.New(rand.NewSource(1)), g.Arch.LUTSize)
	p, err := pack.Pack(ln, g.Arch)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := place.Place(ctx, p, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := route.Route(ctx, pl, g, 24)
	if err != nil {
		tb.Fatal(err)
	}
	bits, err := Generate(pl, rt)
	if err != nil {
		tb.Fatal(err)
	}
	return bits
}

// FuzzDecode feeds arbitrary bytes to Decode as a 2x2 fabric's
// bitstream. Decode must never panic, and whatever it accepts must be
// a valid LUT network.
func FuzzDecode(f *testing.F) {
	g := fabric.BuildRRGraph(fabric.NewArch(2))
	n := Length(g)
	size := (n + 7) / 8
	f.Add(implementedBits(f, g).B)
	f.Add(make([]byte, size))
	f.Add(bytes.Repeat([]byte{0xff}, size))
	f.Fuzz(func(t *testing.T, data []byte) {
		ln, err := Decode(g, &Bits{N: n, B: data})
		if err != nil {
			return
		}
		if err := ln.Validate(); err != nil {
			t.Fatalf("Decode returned an invalid network: %v", err)
		}
	})
}
