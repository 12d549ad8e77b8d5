// Command alice runs the ALICE eFPGA-redaction flow on a Verilog design
// with a YAML configuration, mirroring the tool interface described in
// Sec. 3 of the paper.
//
// Usage:
//
//	alice -v design.v -c flow.yaml [-o redacted.v] [-summary] [-json] [-timeout 30s]
//	alice -bench gcd -cfg 1 [-o redacted.v]
//	alice -bench gcd -arch-luts 3,4,5 -arch-bles 4,8 -json
//	alice -bench gcd -timing -delay-weight 0.5 -fmax-floor 250 -json
//	alice -bench gcd -key-weight 0.5 -min-key-bits 64 -json
//	alice serve -addr localhost:8080 -data ./alice-data
//
// The -arch-* flags open the fabric architecture space: every cluster
// is characterized against the cartesian product of the listed LUT
// sizes and cluster sizes (on top of the width sweep), and -json
// reports one row per family.
//
// The timing flags drive the frequency-aware flow: -timing steers
// placement and routing by connection criticality, -delay-weight adds
// an Fmax term to the selection score, and -fmax-floor rejects fabrics
// that miss the frequency constraint. Reports always carry each
// fabric's critical-path delay and Fmax.
//
// The security flags price the oracle-free structural analysis into
// selection: -key-weight rewards fabrics whose key survives the
// analysis (more effective key bits), and -min-key-bits rejects
// fabrics whose effective key length falls below the floor. Reports
// always carry each fabric's key_bits / effective_key_bits breakdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"alice"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		vFile     = flag.String("v", "", "Verilog design file")
		cFile     = flag.String("c", "", "YAML flow configuration file")
		benchName = flag.String("bench", "", "run a built-in benchmark (des3, fir, iir, sha256, sasc, usb_phy, gcd)")
		cfgNum    = flag.Int("cfg", 1, "paper configuration for -bench: 1 (64 I/O, 2 eFPGAs) or 2 (96 I/O, 1 eFPGA)")
		outFile   = flag.String("o", "", "write the redacted Verilog to this file")
		summary   = flag.Bool("summary", true, "print the flow summary")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON on stdout (suppresses the summary)")
		timeout   = flag.Duration("timeout", 0, "abort the flow after this duration (0 = no limit)")
		parallel  = flag.Int("parallel", 0, "worker-pool width of characterization, selection analyses and implementation (0 = all CPUs)")
		progress  = flag.Bool("progress", false, "log per-stage progress to stderr")
		model     = flag.Bool("functional-model", false, "emit functional (programmed) eFPGA models instead of unprogrammed stubs")
		archLuts  = flag.String("arch-luts", "", "comma-separated LUT sizes to explore (e.g. 3,4,5); empty = the paper's 4")
		archBles  = flag.String("arch-bles", "", "comma-separated BLEs-per-CLB values to explore (e.g. 4,8); empty = the paper's 4")
		archCW    = flag.String("arch-cw", "auto", "routing channel width: auto (width-derived) or a fixed track count")
		timingOn  = flag.Bool("timing", false, "timing-driven mode: criticality steers placement and routing")
		delayW    = flag.Float64("delay-weight", -1, "selection weight of the Fmax term (gamma; <0 keeps the config's value)")
		fmaxFloor = flag.Float64("fmax-floor", -1, "reject fabrics below this Fmax in MHz (<0 keeps the config's value)")
		keyW      = flag.Float64("key-weight", -1, "selection weight of the effective-key-length term (<0 keeps the config's value)")
		keyFloor  = flag.Int("min-key-bits", -1, "reject fabrics whose effective key length is below this many bits (<0 keeps the config's value)")
	)
	flag.Parse()

	var src string
	var cfg *alice.Config
	switch {
	case *benchName != "":
		b, ok := alice.BenchmarkByName(*benchName)
		if !ok {
			fatalf("unknown benchmark %q", *benchName)
		}
		src = b.Source()
		switch *cfgNum {
		case 1:
			cfg = alice.Cfg1()
		case 2:
			cfg = alice.Cfg2()
		default:
			fatalf("-cfg must be 1 or 2")
		}
		cfg.SelectedOutputs = b.SelectedOutputs
	case *vFile != "":
		data, err := os.ReadFile(*vFile)
		if err != nil {
			fatalf("reading design: %v", err)
		}
		src = string(data)
		cfg = alice.DefaultConfig()
		if *cFile != "" {
			ydata, err := os.ReadFile(*cFile)
			if err != nil {
				fatalf("reading config: %v", err)
			}
			cfg, err = alice.LoadConfig(string(ydata))
			if err != nil {
				fatalf("parsing config: %v", err)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if space, err := parseArchFlags(*archLuts, *archBles, *archCW); err != nil {
		fatalf("%v", err)
	} else if space != nil {
		cfg.ArchSpace = space
		// Fail fast on bad family parameters (e.g. -arch-luts 9) instead
		// of surfacing them deep inside characterization.
		if err := cfg.Validate(); err != nil {
			fatalf("%v", err)
		}
	}

	// -timing overrides the config only when given explicitly, so
	// -timing=false can force a control run against a YAML that sets
	// timing.driven: true (mirroring the -1 sentinels of the float
	// flags below).
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "timing" {
			cfg.TimingDriven = *timingOn
		}
	})
	if *delayW >= 0 {
		cfg.DelayWeight = *delayW
	}
	if *fmaxFloor >= 0 {
		cfg.FmaxFloorMHz = *fmaxFloor
	}
	if *keyW >= 0 {
		cfg.KeyWeight = *keyW
	}
	if *keyFloor >= 0 {
		cfg.MinEffectiveKeyBits = *keyFloor
	}
	if err := cfg.Validate(); err != nil {
		fatalf("%v", err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []alice.Option{alice.WithConfig(cfg)}
	if *parallel > 0 {
		opts = append(opts, alice.WithParallelism(*parallel))
	}
	if *progress {
		opts = append(opts, alice.WithObserver(func(ev alice.Event) {
			switch ev.Kind {
			case alice.EventStageEnd:
				fmt.Fprintf(os.Stderr, "alice: stage %-12s %8.2fs (n=%d)\n",
					ev.Stage, ev.Duration.Seconds(), ev.Count)
			case alice.EventProgress:
				fmt.Fprintf(os.Stderr, "alice: stage %-12s %d/%d clusters\n",
					ev.Stage, ev.Done, ev.Total)
			}
		}))
	}
	eng := alice.NewEngine(opts...)

	rep, err := eng.RunSource(ctx, src)
	if err != nil {
		fatalf("flow failed: %v", err)
	}
	switch {
	case *jsonOut:
		out, err := rep.JSON()
		if err != nil {
			fatalf("encoding report: %v", err)
		}
		os.Stdout.Write(append(out, '\n'))
	case *summary:
		fmt.Print(rep.Summary())
	}
	if rep.Err != nil {
		fmt.Fprintf(os.Stderr, "alice: no solution: %v\n", rep.Err)
		os.Exit(1)
	}
	if *outFile != "" {
		red := rep.Redaction
		if *model {
			// Re-generate with functional eFPGA models, through the same
			// engine so the configured top module is honoured.
			ast, err := alice.Parse(src)
			if err != nil {
				fatalf("%v", err)
			}
			d, err := eng.Elaborate(ctx, ast)
			if err != nil {
				fatalf("%v", err)
			}
			red, err = eng.Redact(ctx, d, rep.Solution, true)
			if err != nil {
				fatalf("generating functional model: %v", err)
			}
		}
		if err := os.WriteFile(*outFile, []byte(red.Print()), 0o644); err != nil {
			fatalf("writing output: %v", err)
		}
		fmt.Printf("redacted design written to %s\n", *outFile)
	}
}

// parseArchFlags expands the -arch-* flags into an architecture space
// (nil when the flags are unset, keeping the configuration's own space).
func parseArchFlags(luts, bles, cw string) ([]alice.ArchParams, error) {
	if luts == "" && bles == "" && (cw == "" || cw == "auto") {
		return nil, nil
	}
	ints := func(flag, s string, def int) ([]int, error) {
		if s == "" {
			return []int{def}, nil
		}
		var out []int
		for _, part := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("-%s: %q is not a positive integer", flag, part)
			}
			out = append(out, v)
		}
		return out, nil
	}
	ks, err := ints("arch-luts", luts, 4)
	if err != nil {
		return nil, err
	}
	ns, err := ints("arch-bles", bles, 4)
	if err != nil {
		return nil, err
	}
	width := 0
	if cw != "" && cw != "auto" {
		width, err = strconv.Atoi(cw)
		if err != nil {
			return nil, fmt.Errorf("-arch-cw: %q is neither auto nor an integer", cw)
		}
	}
	var space []alice.ArchParams
	for _, k := range ks {
		for _, n := range ns {
			space = append(space, alice.ArchParams{LUTSize: k, BLEsPerCLB: n, ChannelWidth: width})
		}
	}
	return space, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "alice: "+format+"\n", args...)
	os.Exit(1)
}
