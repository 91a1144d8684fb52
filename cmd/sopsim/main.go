// Command sopsim runs a single particle simulation and reports its
// trajectory summary: terminal classification (equilibrium, limit cycle, or
// still evolving), net-force trace, and an ASCII/SVG rendering of the final
// configuration. It is the quickest way to explore interaction matrices
// before committing to a full measurement pipeline.
//
// Usage:
//
//	sopsim [-n 30] [-types 3] [-force F1|F2] [-rc 5] [-steps 250]
//	       [-seed 1] [-svg out.svg] [-csv out.csv]
//	sopsim -spec file.json [-steps 250]    # simulate a spec's sim block
//	sopsim [flags] -dump-spec              # print the resolved spec JSON
//
// The interaction matrices are drawn randomly from the paper's ranges
// (F1: k ∈ [1,10), r ∈ [1,5); F2: σ = 1, τ ∈ [1,10)); pass -seed to vary.
// Every invocation resolves to a declarative sops.Spec and is validated
// through Spec.Validate before anything runs — the same rules the library
// enforces — and -dump-spec captures the drawn matrices, so an
// interesting random draw can be pinned to a file and replayed or handed
// to the measurement pipeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	sops "repro"
	"repro/internal/forces"
	"repro/internal/plot"
	"repro/internal/rngx"
)

func main() {
	var (
		n         = flag.Int("n", 30, "number of particles")
		l         = flag.Int("types", 3, "number of particle types")
		forceName = flag.String("force", "F1", "force-scaling function: F1 or F2")
		rc        = flag.Float64("rc", 5, "cut-off radius (0 = infinite)")
		steps     = flag.Int("steps", 250, "integration steps")
		seed      = flag.Uint64("seed", 1, "random seed")
		svgPath   = flag.String("svg", "", "write final configuration as SVG")
		csvPath   = flag.String("csv", "", "write net-force trace as CSV")
		specFile  = flag.String("spec", "", "simulate the sim block of a spec JSON file instead of the flags")
		dumpSpec  = flag.Bool("dump-spec", false, "print the resolved spec JSON (with the drawn matrices) and exit")
	)
	flag.Parse()

	sp, err := resolveSpec(*specFile, *n, *l, *forceName, *rc, *seed)
	if err != nil {
		fatal(err)
	}
	// The single validation gate: flag-built and file-loaded specs are
	// held to exactly the rules the library enforces.
	if err := sp.Validate(); err != nil {
		fatal(err)
	}
	if *dumpSpec {
		b, err := sp.MarshalIndent()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}

	session := sops.NewSession()
	sys, err := session.System(sp)
	if err != nil {
		fatal(err)
	}

	times, netForces := report(os.Stdout, sys, *steps)

	if *svgPath != "" {
		svg := plot.SVGScatter("sopsim final configuration", sys.Positions(), sys.Types(), 480)
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *svgPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := plot.WriteSeriesCSV(f, []string{"netforce"}, [][]float64{times}, [][]float64{netForces}); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *csvPath)
	}
}

// report steps sys the given number of times and writes its summary to
// w: the terminal state, the net-force trace as a chart and the final
// configuration. It returns the trace for -csv. A run whose net force is
// no longer finite has diverged (an Euler step beyond sim.MaxStableDt),
// whatever its positions last recurred to.
func report(w io.Writer, sys *sops.System, steps int) (times, netForces []float64) {
	detector := &sops.CycleDetector{Tolerance: 0.15, MaxPeriod: 40}
	equilibriumAt := -1
	for k := 0; k < steps; k++ {
		sys.Step()
		times = append(times, float64(sys.Time()))
		netForces = append(netForces, sys.NetForce())
		detector.Observe(sys.PositionsRef())
		if equilibriumAt < 0 && sys.InEquilibrium() {
			equilibriumAt = sys.Time()
		}
	}

	cfg := sys.Config()
	net := sys.NetForce()
	fmt.Fprintf(w, "force %s with %d types, %d particles, rc=%g, %d steps\n",
		cfg.Force.Name(), cfg.Force.Types(), cfg.N, cfg.Cutoff, steps)
	fmt.Fprintf(w, "final net force: %.3f (threshold %.3f)\n", net, cfg.EquilibriumThreshold)
	switch {
	case math.IsNaN(net) || math.IsInf(net, 0):
		fmt.Fprintln(w, "terminal state: diverged (net force is not finite)")
	case equilibriumAt >= 0:
		fmt.Fprintf(w, "terminal state: equilibrium (first reached at step %d)\n", equilibriumAt)
	case detector.Period() > 1:
		fmt.Fprintf(w, "terminal state: limit cycle, period %d steps\n", detector.Period())
	case detector.Period() == 1:
		fmt.Fprintln(w, "terminal state: stationary (recurrence, force criterion not met)")
	default:
		fmt.Fprintln(w, "terminal state: still evolving (paper Sec. 6: likely slow expansion)")
	}

	chart := &plot.Chart{Title: "net deterministic force over time", XLabel: "t", YLabel: "sum |F|"}
	chart.Add("netforce", times, netForces)
	fmt.Fprint(w, chart.Render(72, 12))
	fmt.Fprintln(w, "final configuration (digits = types):")
	fmt.Fprint(w, sops.ASCIIScatter(sys.Positions(), sys.Types(), 64, 24))
	return times, netForces
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sopsim:", err)
	os.Exit(1)
}

// resolveSpec builds the invocation's declarative spec: from a file, or
// from the flags with the random interaction matrices drawn and pinned
// (so -dump-spec output replays this exact system).
func resolveSpec(specFile string, n, l int, forceName string, rc float64, seed uint64) (sops.Spec, error) {
	if specFile != "" {
		sp, err := sops.LoadSpec(specFile)
		if err != nil {
			return sops.Spec{}, err
		}
		if sp.Sim == nil {
			return sops.Spec{}, fmt.Errorf("spec %s has no sim block to simulate", specFile)
		}
		return sp, nil
	}
	rng := rngx.New(seed)
	var force forces.Scaling
	switch strings.ToUpper(forceName) {
	case "F1":
		force = forces.RandomF1(l, 1, 10, 1, 5, rng)
	case "F2":
		force = forces.RandomF2(l, 1, 10, 1, 10, rng)
	default:
		return sops.Spec{}, fmt.Errorf("unknown force %q (want F1 or F2)", forceName)
	}
	cutoff := rc
	if cutoff == 0 {
		cutoff = math.Inf(1)
	}
	return sops.NewSpec("sopsim",
		sops.WithSeed(seed),
		sops.WithSim(sops.SimConfig{N: n, Force: force, Cutoff: cutoff}),
	)
}
