package main

import (
	"fmt"
	"reflect"
	"testing"
)

func TestGenRequestsDeterministicPerSeed(t *testing.T) {
	a, b := genRequests(7), genRequests(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different request sequences")
	}
	if reflect.DeepEqual(a, genRequests(8)) {
		t.Fatal("seeds 7 and 8 drew the same request sequence")
	}
}

func TestGenRequestsKeysOwnedByOneClient(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		owner := make(map[string]int)
		design := make(map[string]int)
		for c, reqs := range genRequests(seed) {
			for _, r := range reqs {
				if o, ok := owner[r.key()]; ok && o != c {
					t.Fatalf("seed %d: key %s sent by clients %d and %d", seed, r.key(), o, c)
				}
				owner[r.key()] = c
				if o, ok := design[r.bench]; ok && o != c {
					t.Fatalf("seed %d: design %s sent by clients %d and %d", seed, r.bench, o, c)
				}
				design[r.bench] = c
			}
		}
	}
}

func TestGenRequestsClassesMatchHistory(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for c, reqs := range genRequests(seed) {
			seen := make(map[string]bool)          // memo keys already sent
			characterized := make(map[string]bool) // design, cfg and flow seed already run
			count := make(map[string]int)
			for _, r := range reqs {
				count[r.class]++
				flow := fmt.Sprintf("%s/cfg%d/seed%d", r.bench, r.cfg, r.flowSeed)
				switch r.class {
				case classHit:
					if !seen[r.key()] {
						t.Fatalf("seed %d client %d: hit on unseen key %s", seed, c, r.key())
					}
				case classWarm:
					if seen[r.key()] || !characterized[flow] {
						t.Fatalf("seed %d client %d: warm miss %s is not a new key over a characterized design", seed, c, r.key())
					}
				case classCold:
					if seen[r.key()] || characterized[flow] || r.flowSeed == 1 {
						t.Fatalf("seed %d client %d: cold miss %s reuses a flow seed", seed, c, r.key())
					}
				}
				seen[r.key()] = true
				characterized[flow] = true
			}
			if count[classHit] != 8*count[classCold] || count[classWarm] != count[classCold] {
				t.Fatalf("seed %d client %d: class mix %v, want 8:1:1", seed, c, count)
			}
		}
	}
}
