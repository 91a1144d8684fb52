// Command sopsweep runs batched sweep experiments — many full
// simulate→align→estimate pipelines — concurrently under one global
// worker budget, with optional per-run checkpointing so an interrupted
// sweep resumes from what is already on disk.
//
// Every invocation resolves to one declarative sops.Spec and executes it
// through a sops.Session: `-scenario` names a registered spec, `-spec`
// loads one from JSON (the versioned Spec format), and `-dump-spec`
// prints the fully resolved spec instead of running it, so any
// invocation can be captured, versioned and replayed exactly.
//
// Usage:
//
//	sopsweep [flags] -scenario <name>     # named scenario from the registry
//	sopsweep [flags] -spec file.json      # spec file (scenario, grid, or single run)
//	sopsweep -list                        # list registered scenarios
//
// Flags:
//
//	-scale quick|paper|test   ensemble scale preset (default quick)
//	-seed N                   master seed; every run derives its own
//	                          rngx.Split sub-streams from it
//	-m/-steps/-repeats N      override single fields of the scale
//	-runs N                   concurrent pipeline runs (0 = GOMAXPROCS,
//	                          1 = serial run order)
//	-budget N                 global worker tokens shared by all stages
//	                          of all in-flight runs (0 = GOMAXPROCS)
//	-checkpoint DIR           write one file per completed run and
//	                          resume from matching files already present
//	-cache-bytes N            front the checkpoint store with an
//	                          in-memory LRU of N bytes (0 disables)
//	-worker-procs N           shard the sweep across N worker processes
//	                          (re-exec'd sopsweep children; 0/1 = in-process);
//	                          the worker budget is split among them
//	-out DIR                  output directory (CSV + SVG per figure)
//	-dump-spec                print the resolved spec JSON and exit
//
// With -worker-procs, this process coordinates: children are spawned in
// a hidden worker mode (`sopsweep -worker -dist-addr <socket>`), receive
// one spec at a time over length-prefixed frames, run it against the
// shared -checkpoint store, and stream progress back. A killed worker
// only requeues its run to the survivors; output stays byte-identical
// to the in-process sweep.
//
// SIGINT cancels the sweep gracefully: in-flight runs stop within one
// worker-token grant, completed runs keep their checkpoints, and
// re-running the identical command with the same -checkpoint resumes and
// produces byte-identical output. Results are bit-identical for every
// -runs/-budget setting; see DESIGN.md "Public API".
//
// Spec files may select the approximate estimator tier
// (estimator block: "tier": "approx", "subsample": r): each run's KSG
// sum is then evaluated at r deterministically drawn samples per step
// with per-step error bars, ~M/r faster at large M. Approximate-tier
// runs key their own checkpoints — they never collide with exact-tier
// checkpoints of the same grid — and resume byte-identically, because
// the subsample draw depends only on (seed, step), never on scheduling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	sops "repro"
	"repro/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sopsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sopsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario  = fs.String("scenario", "", "named scenario to run (see -list)")
		specFile  = fs.String("spec", "", "spec JSON file (scenario, grid, or single run)")
		list      = fs.Bool("list", false, "list registered scenarios and exit")
		dumpSpec  = fs.Bool("dump-spec", false, "print the resolved spec JSON and exit without running")
		scaleName = fs.String("scale", "quick", "ensemble scale: quick, paper, or test")
		seed      = fs.Uint64("seed", 2012, "master seed")
		mOverride = fs.Int("m", 0, "override the ensemble size M of the chosen scale")
		stepsOv   = fs.Int("steps", 0, "override t_max of the chosen scale")
		repeatsOv = fs.Int("repeats", 0, "override the repeat draws of the chosen scale")
		runs      = fs.Int("runs", 0, "concurrent pipeline runs (0 = GOMAXPROCS, 1 = serial)")
		budget    = fs.Int("budget", 0, "global worker budget shared by all in-flight runs (0 = GOMAXPROCS)")
		ckptDir   = fs.String("checkpoint", "", "checkpoint directory; completed runs resume from it")
		cacheB    = fs.Int("cache-bytes", 0, "in-memory result cache in bytes fronting the checkpoint store (0 = off)")
		procs     = fs.Int("worker-procs", 0, "shard the sweep across N worker processes (0/1 = in-process)")
		outDir    = fs.String("out", "out", "output directory")
		quiet     = fs.Bool("q", false, "suppress per-run progress lines")
		// Hidden plumbing for -worker-procs: the coordinator re-execs
		// this binary as `sopsweep -worker -dist-addr <socket>`.
		workerMode = fs.Bool("worker", false, "run as a distributed sweep worker (internal)")
		distAddr   = fs.String("dist-addr", "", "coordinator socket address for -worker (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerMode {
		if *distAddr == "" {
			return fmt.Errorf("-worker requires -dist-addr")
		}
		return sops.ServeSweepWorker(ctx, *distAddr, sops.SweepWorkerOptions{
			Budget: *budget,
			Dir:    *ckptDir,
		})
	}
	if *list {
		for _, s := range sweep.Scenarios() {
			fmt.Fprintf(stdout, "%-14s %s\n", s.Name, s.Desc)
		}
		return nil
	}
	if (*scenario == "") == (*specFile == "") {
		return fmt.Errorf("exactly one of -scenario or -spec is required (or -list)")
	}

	sp, err := resolveSpec(*scenario, *specFile, *scaleName, *seed)
	if err != nil {
		return err
	}
	// The spec (file or scenario) is authoritative; flags fill only what
	// it leaves open — one shared policy for every CLI.
	sp.MergeCLIOverrides(*scaleName, *seed, *mOverride, *stepsOv, *repeatsOv)
	if err := sp.Validate(); err != nil {
		return err
	}
	if *dumpSpec {
		b, err := sp.MarshalIndent()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	}

	opts := []sops.SessionOption{
		sops.WithWorkerBudget(*budget),
		sops.WithRunConcurrency(*runs),
		sops.WithCheckpointDir(*ckptDir),
		sops.WithResultCache(*cacheB),
	}
	if *procs > 1 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolving worker executable: %w", err)
		}
		spawn := sops.CommandSpawner(exe, stderr, func(_ int, addr string, budget int) []string {
			return sops.SweepWorkerArgs(addr, budget, *ckptDir)
		})
		opts = append(opts, sops.WithWorkerProcs(*procs, spawn))
	}
	session := sops.NewSession(opts...)
	if !*quiet {
		defer session.Subscribe(func(ev sops.ProgressEvent) {
			if ev.Kind != sops.ProgressRunDone {
				return
			}
			suffix := ""
			if ev.FromCheckpoint {
				suffix = " (from checkpoint)"
			}
			fmt.Fprintf(stderr, "done %s%s\n", ev.Run, suffix)
		})()
	}

	fd, err := session.Figure(ctx, sp)
	if err != nil {
		return interruptMsg(err, *ckptDir)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	return sops.WriteFigure(stdout, *outDir, fd)
}

// interruptMsg decorates a cancellation with what actually happened to
// the work: resumable only if a checkpoint directory was in use.
func interruptMsg(err error, ckptDir string) error {
	if !errors.Is(err, context.Canceled) {
		return err
	}
	if ckptDir != "" {
		return fmt.Errorf("interrupted — completed runs are checkpointed; rerun with the same -checkpoint to resume: %w", err)
	}
	return fmt.Errorf("interrupted — no -checkpoint was set, so nothing was persisted: %w", err)
}

// resolveSpec turns the invocation into one declarative spec: a named
// scenario or a versioned Spec file.
func resolveSpec(scenario, specFile, scale string, seed uint64) (sops.Spec, error) {
	if scenario != "" {
		s, ok := sweep.LookupScenario(scenario)
		if !ok {
			return sops.Spec{}, fmt.Errorf("unknown scenario %q (use -list)", scenario)
		}
		return s.Spec(scale, seed), nil
	}
	return sops.LoadSpec(specFile) // scale/seed defaults merge in MergeCLIOverrides
}
