package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"alice"
	"alice/internal/core"
	"alice/internal/fabric"
	"alice/internal/openfpga"
	"alice/internal/verilog"
)

// Co-simulation lengths of the flow workload's output checks.
const (
	redactionSteps = 200
	bitstreamSteps = 64
)

// flowOp is one (design, cfg) pair of the paper corpus.
type flowOp struct {
	design  string
	cfg     int
	src     string
	outputs []string // the design's protected outputs
	set     int      // set2 for des3, set1 for the rest
}

func (op flowOp) key() string { return fmt.Sprintf("%s/cfg%d", op.design, op.cfg) }

// config returns the op's paper configuration with the winning
// solution fully implemented.
func (op flowOp) config() *alice.Config {
	cfg := alice.Cfg1()
	if op.cfg == 2 {
		cfg = alice.Cfg2()
	}
	cfg.SelectedOutputs = op.outputs
	cfg.ImplementWinner = true
	return cfg
}

// flowWorkload is the designer's path over the paper corpus, one
// (design, cfg) op at a time: parse, run the flow with the winner
// implemented, regenerate the functional redaction and co-simulate it
// against the original, and verify every fabric's bitstream.
type flowWorkload struct {
	seed int64
	exp  *expectations
	ops  []flowOp
}

func newFlowWorkload(seed int64, exp *expectations) *flowWorkload {
	return &flowWorkload{seed: seed, exp: exp}
}

func (f *flowWorkload) setupEachPass() bool { return false }
func (f *flowWorkload) teardown()           {}

// setup loads the corpus, parses every design once to reject bad input
// before timing starts, and orders the 14 ops by the seed.
func (f *flowWorkload) setup() error {
	var ops []flowOp
	for _, b := range alice.Benchmarks() {
		src := b.Source()
		if _, err := alice.Parse(src); err != nil {
			return fmt.Errorf("parsing %s: %w", b.Name, err)
		}
		for _, cfg := range []int{1, 2} {
			set := set1
			if b.Name == "des3" {
				set = set2
			}
			ops = append(ops, flowOp{design: b.Name, cfg: cfg, src: src, outputs: b.SelectedOutputs, set: set})
		}
	}
	f.ops = make([]flowOp, len(ops))
	for i, j := range shuffled(len(ops), f.seed) {
		f.ops[i] = ops[j]
	}
	return nil
}

func (f *flowWorkload) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	pr := &passResult{
		start:     time.Now(),
		counters:  make(map[string]float64),
		layer:     make(map[string]float64),
		solutions: make(map[string]string),
	}
	for i, op := range f.ops {
		// Each op starts from a collected heap, so the seed's op order
		// does not change the collection work an op inherits.
		runtime.GC()
		t := time.Now()
		err := f.runOp(ctx, op, tr, i+1, pr)
		pr.ops = append(pr.ops, opSample{name: op.key(), set: op.set, seconds: time.Since(t).Seconds(), err: err})
	}
	pr.wall = time.Since(pr.start).Seconds()
	return pr, nil
}

// flowOutcome is what either path through the flow hands the checks.
type flowOutcome struct {
	t2  table2
	d   *alice.ElaboratedDesign
	sol *alice.Solution
	err error // the flow diagnostic, nil when a solution exists
}

// runOp runs one op and checks its outputs, adding its counters to pr.
func (f *flowWorkload) runOp(ctx context.Context, op flowOp, tr *tracer, opID int, pr *passResult) error {
	root := tr.begin("bench.op", 0, opID)
	defer tr.end(root)
	sp := tr.begin("verilog.parse", root, opID)
	ast, err := alice.Parse(op.src)
	tr.end(sp)
	if err != nil {
		return err
	}
	eng := alice.NewEngine(alice.WithConfig(op.config()))
	var out flowOutcome
	if tr == nil {
		out, err = runEngine(ctx, eng, ast)
	} else {
		out, err = runStages(ctx, eng, ast, tr, root, opID, pr)
	}
	if err != nil {
		return err
	}

	k := op.key()
	pr.counters[k+".clusters"] = float64(out.t2.Clusters)
	pr.counters[k+".solutions"] = float64(out.t2.Solutions)
	pr.layer["core.candidates"] += float64(out.t2.Candidates)
	pr.layer["core.clusters"] += float64(out.t2.Clusters)
	pr.layer["core.valid_efpgas"] += float64(out.t2.ValidEFPGAs)
	pr.layer["core.solutions"] += float64(out.t2.Solutions)
	if err := f.exp.checkTable2(k, out.t2); err != nil {
		return err
	}
	if op.design == "iir" && op.cfg == 1 {
		// The paper's "(n.a.)" row: a typed diagnostic, not a solution.
		if !errors.Is(out.err, alice.ErrNoCandidates) || out.sol != nil {
			return fmt.Errorf("want the no-candidate diagnostic, got %v", out.err)
		}
		return nil
	}
	if out.err != nil {
		return out.err
	}
	pr.solutions[k] = solutionKey(out.sol)

	sp = tr.begin("core.redact", root, opID)
	red, err := eng.Redact(ctx, out.d, out.sol, true)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("functional redaction: %w", err)
	}
	sp = tr.begin("verify.redaction", root, opID)
	err = core.VerifyRedaction(out.d, red, redactionSteps, f.seed)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("redaction co-simulation: %w", err)
	}
	sp = tr.begin("verify.bitstream", root, opID)
	defer tr.end(sp)
	for i, fc := range out.sol.Fabrics {
		fab := fc.Fabric
		if err := checkBitstream(fab, f.seed); err != nil {
			return fmt.Errorf("fabric %d: %w", i, err)
		}
		ic := implCounts{ConfigBits: fab.ConfigBits()}
		if fab.Placement != nil {
			ic.PlaceCost = fab.Placement.Cost
		}
		if fab.Routing != nil {
			ic.RouteIterations = fab.Routing.Iterations
		}
		fk := fmt.Sprintf("%s/%s#%d", k, fab.Arch.Name(), i)
		pr.counters[fk+".place_cost"] = ic.PlaceCost
		pr.counters[fk+".route_iterations"] = float64(ic.RouteIterations)
		pr.layer["place.cost"] += ic.PlaceCost
		pr.layer["route.iterations"] += float64(ic.RouteIterations)
		pr.layer["bitstream.config_bits"] += float64(ic.ConfigBits)
		// BENCH.json implements the small cfg1 winners; where it has the
		// row, the same engine configuration must reproduce it.
		if want, ok := f.exp.implement[implKey(k, out.sol, i)]; ok && want != ic {
			return fmt.Errorf("fabric %d implementation %+v, want %+v", i, ic, want)
		}
	}
	return nil
}

// checkBitstream is the correctness gate on an implemented fabric: the
// circuit decoded from its bitstream must match the mapped network on
// random stimulus.
func checkBitstream(fab *openfpga.Fabric, seed int64) error {
	if err := openfpga.VerifyBitstream(fab, bitstreamSteps, seed); err != nil {
		return fmt.Errorf("bitstream does not program the redacted logic: %w", err)
	}
	return nil
}

// implKey names fabric i of a solution like the BENCH.json implement
// rows: "design/cfgN/WxW#n", n counting equal fabric names.
func implKey(opKey string, sol *alice.Solution, i int) string {
	name := sol.Fabrics[i].Fabric.Arch.Name()
	n := 0
	for _, fc := range sol.Fabrics[:i] {
		if fc.Fabric.Arch.Name() == name {
			n++
		}
	}
	return fmt.Sprintf("%s/%s#%d", opKey, name, n)
}

// solutionKey fingerprints a selected solution: fabrics, redacted
// instances and score.
func solutionKey(sol *alice.Solution) string {
	var paths []string
	for _, in := range sol.RedactedInstances() {
		paths = append(paths, in.Path)
	}
	return fmt.Sprintf("%s|%s|%g", sol.FabricSizes(), strings.Join(paths, ","), sol.Score)
}

// runEngine is the untraced path: the whole flow in one Engine.Run.
func runEngine(ctx context.Context, eng *alice.Engine, ast *verilog.Design) (flowOutcome, error) {
	rep, err := eng.Run(ctx, ast)
	if err != nil {
		return flowOutcome{}, err
	}
	d, err := eng.Elaborate(ctx, ast)
	if err != nil {
		return flowOutcome{}, err
	}
	out := flowOutcome{d: d, sol: rep.Solution, err: rep.Err, t2: table2{
		Candidates: rep.R, Clusters: rep.C, ValidEFPGAs: rep.ValidEFPGAs,
		Solutions: rep.S, Redacted: rep.Redacted, Fabrics: rep.FabricSizes,
	}}
	if rep.Err != nil {
		out.t2.Error = rep.Err.Error()
	}
	return out, nil
}

// runStages is the traced path: the Engine stage methods one by one,
// with characterization split per cluster wrapper into synthesis,
// technology mapping and the fabric-size search, each its own span.
func runStages(ctx context.Context, eng *alice.Engine, ast *verilog.Design, tr *tracer, root, opID int, pr *passResult) (flowOutcome, error) {
	var out flowOutcome
	stage := func(name string, fn func() error) error {
		sp := tr.begin(name, root, opID)
		defer tr.end(sp)
		return fn()
	}
	diag := func(s core.Stage, err error) (flowOutcome, error) {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		var fe *alice.FlowError
		if !errors.As(err, &fe) {
			err = &alice.FlowError{Stage: s, Design: out.d.Top.Name, Err: err}
		}
		out.err = err
		out.t2.Error = err.Error()
		return out, nil
	}
	err := stage("rtl.elaborate", func() (err error) {
		out.d, err = eng.Elaborate(ctx, ast)
		return err
	})
	if err != nil {
		return out, err
	}
	var fr *alice.FilterResult
	if err := stage("core.filter", func() (err error) {
		fr, err = eng.Filter(ctx, out.d)
		return err
	}); err != nil {
		return diag(core.StageFilter, err)
	}
	out.t2.Candidates = len(fr.Candidates)
	if len(fr.Candidates) == 0 {
		return diag(core.StageFilter, alice.ErrNoCandidates)
	}
	var clusters []alice.Cluster
	if err := stage("core.cluster", func() (err error) {
		clusters, err = eng.Cluster(ctx, fr)
		return err
	}); err != nil {
		return diag(core.StageCluster, err)
	}
	out.t2.Clusters = len(clusters)
	if len(clusters) == 0 {
		return diag(core.StageCluster, alice.ErrNoCluster)
	}
	sp := tr.begin("core.characterize", root, opID)
	cands, err := characterizeSplit(ctx, out.d, clusters, eng.Config(), tr, sp, opID, pr)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	var sel *alice.SelectionResult
	err = stage("core.select", func() (err error) {
		sel, err = eng.Select(ctx, cands)
		return err
	})
	if sel != nil {
		out.t2.ValidEFPGAs, out.t2.Solutions = sel.ValidCount, sel.SolutionCount
	}
	if err != nil {
		return diag(core.StageSelect, err)
	}
	out.sol = sel.Best
	out.t2.Fabrics = sel.Best.FabricSizes()
	out.t2.Redacted = len(sel.Best.RedactedInstances())
	if err := stage("core.implement", func() error { return eng.Implement(ctx, sel.Best) }); err != nil {
		return diag(core.StageImplement, err)
	}
	// Engine.Run also produces the foundry (unprogrammed) view.
	err = stage("core.redact", func() error {
		_, err := eng.Redact(ctx, out.d, sel.Best, false)
		return err
	})
	return out, err
}

// characterizeSplit characterizes every cluster against the paper's
// fabric family exactly as the engine's characterization stage does
// (same wrapper, options and worker-pool width), calling the openfpga
// phases one at a time so each gets a span.
func characterizeSplit(ctx context.Context, d *alice.ElaboratedDesign, clusters []alice.Cluster, cfg *alice.Config, tr *tracer, parent, opID int, pr *passResult) ([]alice.FabricCandidate, error) {
	fam := fabric.DefaultParams()
	opts := openfpga.Options{
		MinW:         cfg.MinFabric,
		MaxW:         cfg.MaxFabric,
		FullPnR:      cfg.FullPnR,
		Seed:         cfg.Seed,
		RouteIters:   24,
		UnifyClocks:  true,
		TimingDriven: cfg.TimingDriven,
		Params:       fam,
	}
	out := make([]alice.FabricCandidate, len(clusters))
	luts := make([]int, len(clusters))
	one := func(i int) {
		c := clusters[i]
		name := fmt.Sprintf("alice_cluster_%d", i)
		sp := tr.begin("openfpga.synthesize", parent, opID)
		wrapper := core.BuildClusterWrapper(&c, name)
		ast := &verilog.Design{Modules: append(append([]*verilog.Module(nil), d.AST.Modules...), wrapper)}
		n, err := openfpga.Synthesize(ctx, ast, name, opts)
		tr.end(sp)
		var fab *openfpga.Fabric
		if err == nil {
			sp = tr.begin("openfpga.map", parent, opID)
			ln, merr := openfpga.MapNetlist(n, fabric.Params{LUTSize: fam.Normalized().LUTSize})
			tr.end(sp)
			err = merr
			if err == nil {
				luts[i] = ln.NumLUTs()
				sp = tr.begin("openfpga.fit", parent, opID)
				fab, err = openfpga.CharacterizeLUTs(ctx, n, ln, c.Pins, opts)
				tr.end(sp)
			}
		}
		out[i] = alice.FabricCandidate{Cluster: c, Family: fam, Fabric: fab, Err: err}
	}
	workers := min(runtime.GOMAXPROCS(0), len(clusters))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				one(i)
			}
		}()
	}
	for i := range clusters {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, n := range luts {
		pr.layer["techmap.luts"] += float64(n)
	}
	return out, nil
}

// named prints flow.wall_s and flow.small_s (the 12 non-des3 ops).
func (f *flowWorkload) named(passes []*passResult) {
	var walls, small []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		s := 0.0
		for _, op := range p.ops {
			if op.set == set1 {
				s += op.seconds
			}
		}
		small = append(small, s)
	}
	fmt.Printf("flow.wall_s %.4f (median of %d passes)\n", median(walls), len(walls))
	fmt.Printf("flow.small_s %.4f (median of %d passes)\n", median(small), len(small))
	// Per-op times of the first pass, slowest first.
	ops := append([]opSample(nil), passes[0].ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].seconds > ops[j].seconds })
	for _, op := range ops {
		fmt.Printf("  op %-14s %9.4fs\n", op.name, op.seconds)
	}
}
