package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"alice"
	"alice/internal/attack"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// corpusTargets are the synthetic attack targets of the BENCH.json
// attack rows (the alicebench corpus), smallest key first.
var corpusTargets = []struct{ name, src string }{
	{"xor2", `module t (input wire [1:0] a, output wire y);
  assign y = a[0] ^ a[1];
endmodule`},
	{"add4", `module t (input wire [3:0] a, input wire [3:0] b, output wire [4:0] y);
  assign y = a + b;
endmodule`},
	{"mix6", `module t (input wire [5:0] a, input wire [5:0] k, output wire [5:0] y);
  assign y = (a + k) ^ {a[2:0], k[5:3]};
endmodule`},
	{"sbox6", `module t (input wire [5:0] a, output wire [3:0] y);
  assign y = {a[0] ^ a[5], a[1] & a[4] | a[2], a[3] ^ (a[1] & a[0]), ^a};
endmodule`},
	{"mix8", `module t (input wire [7:0] a, input wire [7:0] k, output wire [7:0] y);
  assign y = (a + k) ^ {a[3:0], k[7:4]};
endmodule`},
	{"inv8", `module t (input wire [7:0] a, output wire [7:0] y);
  assign y = ~a;
endmodule`},
}

// Conflict budgets. The corpus targets run under the attack engine's
// default and the gcd fabrics under the 250k budget of the BENCH.json
// fabric-attack rows, so both reproduce those rows exactly. The budget
// set runs under budgetConflicts, sized so every fabric in it exhausts
// the budget (usb_phy converges only after ~100k conflicts, des3 never
// finishes its first query) in a few seconds each on a 2-core VM.
const (
	fabricConflicts = 250_000
	budgetConflicts = 2_000
)

// keyCheckPatterns is the random-pattern count VerifyKey applies to a
// recovered key.
const keyCheckPatterns = 300

// attackTarget is one attacked LUT network.
type attackTarget struct {
	name         string // BENCH.json key: corpus target or "design/WxW#n"
	set          int    // set1: crack set, set2: budget set
	ln           *techmap.LUTNetwork
	maxConflicts int
}

// attackWorkload is the security evaluator's path: one oracle-guided
// SAT attack at a time (seed 1, default warm-up). The crack set must
// recover a key that passes VerifyKey; the budget set must exhaust its
// conflict budget. The flows that produce the fabrics run in setup.
type attackWorkload struct {
	seed    int64
	exp     *expectations
	targets []attackTarget
}

func newAttackWorkload(seed int64, exp *expectations) *attackWorkload {
	return &attackWorkload{seed: seed, exp: exp}
}

func (a *attackWorkload) setupEachPass() bool { return false }
func (a *attackWorkload) teardown()           {}

// setup maps the corpus targets and runs the fast-mode cfg1 flows of
// gcd (crack set), usb_phy and des3 (budget set), then orders the
// attacks by the seed.
func (a *attackWorkload) setup() error {
	var ts []attackTarget
	for _, c := range corpusTargets {
		ln, err := mapTarget(c.src)
		if err != nil {
			return fmt.Errorf("mapping %s: %w", c.name, err)
		}
		ts = append(ts, attackTarget{name: c.name, set: set1, ln: ln, maxConflicts: attack.DefaultMaxConflicts})
	}
	for _, d := range []struct {
		design string
		set    int
		budget int
	}{{"gcd", set1, fabricConflicts}, {"usb_phy", set2, budgetConflicts}, {"des3", set2, budgetConflicts}} {
		b, ok := alice.BenchmarkByName(d.design)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", d.design)
		}
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), b.Source())
		if err != nil {
			return err
		}
		if rep.Err != nil {
			return fmt.Errorf("%s flow: %w", d.design, rep.Err)
		}
		seen := make(map[string]int)
		for _, fc := range rep.Solution.Fabrics {
			name := d.design + "/" + fc.Fabric.Arch.Name()
			ts = append(ts, attackTarget{name: fmt.Sprintf("%s#%d", name, seen[name]), set: d.set,
				ln: fc.Fabric.LUTs, maxConflicts: d.budget})
			seen[name]++
		}
	}
	a.targets = make([]attackTarget, len(ts))
	for i, j := range shuffled(len(ts), a.seed) {
		a.targets[i] = ts[j]
	}
	return nil
}

// mapTarget synthesizes a corpus target to its LUT network.
func mapTarget(src string) (*techmap.LUTNetwork, error) {
	ast, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		return nil, err
	}
	res, err := synth.Synthesize(d)
	if err != nil {
		return nil, err
	}
	return techmap.Map(opt.Optimize(res.Netlist))
}

func (a *attackWorkload) pass(_ context.Context, tr *tracer) (*passResult, error) {
	pr := &passResult{
		start:    time.Now(),
		counters: make(map[string]float64),
		layer:    make(map[string]float64),
	}
	cracked, recoverSecs := 0, 0.0
	for i, t := range a.targets {
		runtime.GC() // as in the flow workload: order-independent heap state
		opID := i + 1
		root := tr.begin("bench.op", 0, opID)
		sp := tr.begin("attack.recover", root, opID)
		start := time.Now()
		res, err := attack.RecoverBitstreamOpts(t.ln, attack.Options{
			MaxIters: attack.DefaultMaxIters, Seed: 1, MaxConflicts: t.maxConflicts,
		})
		secs := time.Since(start).Seconds()
		tr.end(sp)
		recoverSecs += secs
		if err == nil {
			cracked++
			sp = tr.begin("attack.verify_key", root, opID)
			err = a.checkCracked(t, res, pr)
			tr.end(sp)
		} else {
			err = a.checkSurvived(t, err, pr)
		}
		tr.end(root)
		pr.ops = append(pr.ops, opSample{name: t.name, set: t.set, seconds: secs, err: err})
	}
	pr.wall = time.Since(pr.start).Seconds()
	pr.layer["attack.cracked_ratio"] = float64(cracked) / float64(len(a.targets))
	pr.layer["sat.props_per_s"] = pr.layer["sat.propagations"] / recoverSecs
	return pr, nil
}

// addSolverCounts records one attack's solver work.
func addSolverCounts(pr *passResult, name string, keyBits, dips, conflicts, decisions, props int) {
	pr.counters[name+".dips"] = float64(dips)
	pr.counters[name+".conflicts"] = float64(conflicts)
	pr.counters[name+".propagations"] = float64(props)
	pr.layer["attack.key_bits"] += float64(keyBits)
	pr.layer["attack.dips"] += float64(dips)
	pr.layer["sat.conflicts"] += float64(conflicts)
	pr.layer["sat.decisions"] += float64(decisions)
	pr.layer["sat.propagations"] += float64(props)
}

// checkCracked gates a recovered key: it must be in the crack set,
// pass VerifyKey, and reproduce the BENCH.json counts.
func (a *attackWorkload) checkCracked(t attackTarget, res *attack.Result, pr *passResult) error {
	addSolverCounts(pr, t.name, res.KeyBits, res.Iterations, res.Conflicts, res.Decisions, res.Propagations)
	pr.layer["sat.reductions"] += float64(res.Reductions)
	pr.layer["sat.deleted_clauses"] += float64(res.DeletedClauses)
	if t.set != set1 {
		return fmt.Errorf("cracked under the %d-conflict budget it must exhaust", t.maxConflicts)
	}
	if err := checkKey(t.ln, res.Masks, a.seed); err != nil {
		return err
	}
	want, ok := a.exp.attacks[t.name]
	if !ok {
		return fmt.Errorf("no expected attack row for %s", t.name)
	}
	if got := (attackCounts{DIPs: res.Iterations, Conflicts: res.Conflicts}); got != want {
		return fmt.Errorf("attack counts %+v, want %+v", got, want)
	}
	return nil
}

// checkKey is the correctness gate on a recovered key: the unlocked
// network must match the oracle on random patterns.
func checkKey(ln *techmap.LUTNetwork, masks map[int32]uint64, seed int64) error {
	if bad := attack.VerifyKey(ln, masks, keyCheckPatterns, seed); bad != 0 {
		return fmt.Errorf("recovered key is wrong on %d of %d patterns", bad, keyCheckPatterns)
	}
	return nil
}

// checkSurvived gates an attack that did not converge: only the budget
// set may survive, and only by exhausting its budget.
func (a *attackWorkload) checkSurvived(t attackTarget, err error, pr *passResult) error {
	var be *attack.BudgetError
	if !errors.As(err, &be) {
		return err
	}
	addSolverCounts(pr, t.name, be.KeyBits, be.Iterations, be.Conflicts, be.Decisions, be.Propagations)
	if t.set != set2 {
		return fmt.Errorf("crack-set target survived: %w", err)
	}
	return nil
}

// named prints attack.crack_s and attack.budget_s.
func (a *attackWorkload) named(passes []*passResult) {
	var crack, budget []float64
	for _, p := range passes {
		var c, b float64
		for _, op := range p.ops {
			if op.set == set1 {
				c += op.seconds
			} else {
				b += op.seconds
			}
		}
		crack, budget = append(crack, c), append(budget, b)
	}
	fmt.Printf("attack.crack_s %.4f (median of %d passes)\n", median(crack), len(crack))
	fmt.Printf("attack.budget_s %.4f (median of %d passes)\n", median(budget), len(budget))
	for _, op := range passes[0].ops {
		fmt.Printf("  attack %-14s set%d %9.4fs\n", op.name, op.set, op.seconds)
	}
}
