// Command sopfigures regenerates every figure of the paper's evaluation
// section (Figs. 1–12) plus the Sec. 5.3 estimator comparison.
//
// Usage:
//
//	sopfigures [-scale quick|paper|test] [-seed N] [-out DIR]
//	           [-runs N] [-budget N] [-checkpoint DIR] <figure>
//	sopfigures [flags] -spec file.json        # run any declarative spec
//	sopfigures [flags] -dump-spec <figure>    # print the figure's spec
//
// where <figure> is one of fig1 … fig12, estimators, or all. Each figure is
// written to DIR as CSV (curves) and/or SVG (configurations), and a compact
// ASCII rendition is printed to stdout. The default quick scale preserves
// the paper's curve shapes at laptop cost; -scale paper reproduces the full
// ensemble sizes (m = 500, 10 repeat draws — hours of CPU for the sweeps).
//
// The measurement figures have a declarative sops.Spec form: -dump-spec
// prints it (pipeline figures fig4/fig5/fig11 as explicit single-run
// specs with the drawn matrices pinned; sweep figures fig8/fig9/fig10 as
// scenario specs), and -spec runs any spec file through a Session —
// `sopfigures -dump-spec fig9 > f.json && sopfigures -spec f.json`
// regenerates the same figure data (CSV byte-identical; the SVG of a
// replayed pipeline figure carries a generic title derived from the spec
// name). Snapshot figures (1, 3, 6, 7, 12) and the force-curve plot (2)
// are bespoke drivers without a spec form.
//
// The sweep figures (8–10, estimators) execute through the budgeted
// concurrent runner: -runs bounds the in-flight pipelines, -budget the
// global worker tokens shared by all of their stages, and -checkpoint
// makes the sweep resumable (one file per completed run). SIGINT cancels
// gracefully: completed runs keep their checkpoints and the identical
// command resumes. Outputs are bit-identical for every -runs/-budget
// setting; see also cmd/sopsweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	sops "repro"
	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/workpool"
)

func main() {
	var (
		scaleName = flag.String("scale", "quick", "ensemble scale: quick, paper, or test")
		seed      = flag.Uint64("seed", 2012, "master seed")
		outDir    = flag.String("out", "out", "output directory")
		mOverride = flag.Int("m", 0, "override the ensemble size M of the chosen scale")
		stepsOv   = flag.Int("steps", 0, "override t_max of the chosen scale")
		repeatsOv = flag.Int("repeats", 0, "override the random-type repeat draws of the chosen scale")
		runs      = flag.Int("runs", 0, "concurrent pipeline runs for the sweep figures (0 = GOMAXPROCS, 1 = serial)")
		budget    = flag.Int("budget", 0, "global worker budget shared by all in-flight sweep runs (0 = GOMAXPROCS)")
		ckpt      = flag.String("checkpoint", "", "checkpoint directory for sweep runs; an interrupted sweep resumes from it")
		specFile  = flag.String("spec", "", "run a declarative spec file instead of a named figure")
		dumpSpec  = flag.Bool("dump-spec", false, "print the figure's declarative spec JSON and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sopfigures [flags] <fig1|...|fig12|estimators|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sc, err := scaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	if *mOverride > 0 {
		sc.M = *mOverride
	}
	if *stepsOv > 0 {
		sc.Steps = *stepsOv
	}
	if *repeatsOv > 0 {
		sc.Repeats = *repeatsOv
	}
	sw := &sweep.Runner{Concurrency: *runs, Tokens: workpool.NewTokens(*budget)}
	if *ckpt != "" {
		sw.Store = sweep.DirStore{Dir: *ckpt}
	}
	r := runner{sc: sc, seed: *seed, out: *outDir, ctx: ctx, sw: sw}

	if *specFile != "" {
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("-spec replaces the figure argument"))
		}
		sp, err := sops.LoadSpec(*specFile)
		if err != nil {
			fatal(err)
		}
		// Same resolution as sopsweep: the file is authoritative, the
		// flags fill what it leaves open — never silently ignored.
		sp.MergeCLIOverrides(*scaleName, *seed, *mOverride, *stepsOv, *repeatsOv)
		if err := sp.Validate(); err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		session := sops.NewSession(
			sops.WithWorkerBudget(*budget),
			sops.WithRunConcurrency(*runs),
			sops.WithCheckpointDir(*ckpt),
		)
		fd, err := session.Figure(ctx, sp)
		if err != nil {
			fatal(interruptMsg(err, *ckpt))
		}
		if err := r.saveFigure(fd); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	target := strings.ToLower(flag.Arg(0))

	if *dumpSpec {
		sp, err := specFor(target, sc, *scaleName, *seed)
		if err != nil {
			fatal(err)
		}
		b, err := sp.MarshalIndent()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	all := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "estimators"}
	if target == "all" {
		for _, f := range all {
			if err := r.run(f); err != nil {
				fatal(interruptMsg(fmt.Errorf("%s: %w", f, err), *ckpt))
			}
		}
		return
	}
	if err := r.run(target); err != nil {
		fatal(interruptMsg(fmt.Errorf("%s: %w", target, err), *ckpt))
	}
}

// interruptMsg decorates a cancellation with what actually happened to
// the work: resumable only if a checkpoint directory was in use.
func interruptMsg(err error, ckptDir string) error {
	if !errors.Is(err, context.Canceled) {
		return err
	}
	if ckptDir != "" {
		return fmt.Errorf("interrupted — completed sweep runs are checkpointed; rerun with the same -checkpoint to resume: %w", err)
	}
	return fmt.Errorf("interrupted — no -checkpoint was set, so nothing was persisted: %w", err)
}

// scaleByName is the spec layer's preset lookup; the CLI's flag default
// guarantees the name is never empty.
func scaleByName(name string) (experiment.Scale, error) {
	return spec.ScaleByName(name)
}

// specFor returns the declarative spec of a figure: explicit single-run
// specs for the pipeline figures (the drawn matrices are pinned in the
// spec, so the file alone reproduces the figure), scenario specs for the
// sweep figures.
func specFor(fig string, sc experiment.Scale, scaleName string, seed uint64) (sops.Spec, error) {
	switch fig {
	case "fig4":
		return sops.SpecFromPipeline(experiment.Fig4PipelineOf(sc, seed))
	case "fig5":
		return sops.SpecFromPipeline(experiment.Fig5PipelineOf(sc, seed))
	case "fig11":
		return sops.SpecFromPipeline(experiment.Fig11PipelineOf(sc, seed))
	case "fig8", "fig9", "fig10":
		s, ok := sweep.LookupScenario(fig)
		if !ok {
			return sops.Spec{}, fmt.Errorf("scenario %q missing from the registry", fig)
		}
		sp := s.Spec(scaleName, seed)
		// Fold the -m/-steps/-repeats overrides into explicit spec
		// fields, so the dumped file reproduces this exact invocation.
		preset, err := scaleByName(scaleName)
		if err != nil {
			return sops.Spec{}, err
		}
		if sc.M != preset.M || sc.Steps != preset.Steps {
			sp.Ensemble = &sops.SpecEnsemble{}
			if sc.M != preset.M {
				sp.Ensemble.M = sc.M
			}
			if sc.Steps != preset.Steps {
				sp.Ensemble.Steps = sc.Steps
			}
		}
		if sc.Repeats != preset.Repeats {
			sp.Sweep = &sops.SpecSweep{Repeats: sc.Repeats}
		}
		return sp, nil
	default:
		return sops.Spec{}, fmt.Errorf("figure %q has no declarative spec form (snapshot and force-curve figures are bespoke drivers)", fig)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sopfigures:", err)
	os.Exit(1)
}

type runner struct {
	sc   experiment.Scale
	seed uint64
	out  string
	ctx  context.Context
	sw   *sweep.Runner
}

func (r runner) run(fig string) error {
	fmt.Printf("== %s ==\n", fig)
	switch fig {
	case "fig1":
		cfgp, err := experiment.Fig1Example(r.seed)
		if err != nil {
			return err
		}
		return r.saveConfigs(fig, []experiment.TypedConfig{*cfgp})
	case "fig2":
		return r.saveFigure(experiment.Fig2ForceCurves())
	case "fig3":
		cfgs, err := experiment.Fig3Equilibria(r.seed)
		if err != nil {
			return err
		}
		return r.saveConfigs(fig, cfgs)
	case "fig4":
		res, err := experiment.Fig4PipelineOf(r.sc, r.seed).RunCtx(r.ctx)
		if err != nil {
			return err
		}
		fd := resultFigure("fig4", "Multi-information vs time (n=50, l=3, rc=5, F1)", res.Times, res.MI)
		fmt.Printf("equilibrated fraction: %.2f\n", res.EquilibratedFraction)
		return r.saveFigure(fd)
	case "fig5":
		res, err := experiment.Fig5PipelineOf(r.sc, r.seed).RunCtx(r.ctx)
		if err != nil {
			return err
		}
		return r.saveFigure(resultFigure("fig5",
			"Multi-information vs time (20 particles, one type, F1, rc > 2r)", res.Times, res.MI))
	case "fig6":
		res, err := experiment.Fig6Pipeline(r.sc, r.seed)
		if err != nil {
			return err
		}
		snaps := experiment.Fig6Snapshots(res, []int{60, res.Times[len(res.Times)-1]}, 4)
		return r.saveConfigs(fig, snaps)
	case "fig7":
		res, err := experiment.Fig5PipelineOf(r.sc, r.seed).RunCtx(r.ctx)
		if err != nil {
			return err
		}
		inner, outer := experiment.RingRadialStats(res)
		fmt.Printf("inner-ring scatter %.3f vs outer-ring scatter %.3f (paper: inner ≫ outer)\n", inner, outer)
		ov := experiment.Fig7AlignedOverlay(res)
		return r.saveConfigs(fig, []experiment.TypedConfig{*ov})
	case "fig8":
		fd, err := experiment.Fig8TypeCountSweep(r.ctx, r.sw, r.sc, 10, r.seed)
		if err != nil {
			return err
		}
		return r.saveFigure(fd)
	case "fig9":
		fd, err := experiment.Fig9CutoffSweep(r.ctx, r.sw, r.sc, r.seed)
		if err != nil {
			return err
		}
		return r.saveFigure(fd)
	case "fig10":
		fd, err := experiment.Fig10TypesVsCutoff(r.ctx, r.sw, r.sc, r.seed)
		if err != nil {
			return err
		}
		return r.saveFigure(fd)
	case "fig11":
		fd, err := experiment.Fig11Decomposition(r.sc, r.seed)
		if err != nil {
			return err
		}
		return r.saveFigure(fd)
	case "fig12":
		cfgs, err := experiment.Fig12EmergentStructures(r.seed)
		if err != nil {
			return err
		}
		return r.saveConfigs(fig, cfgs)
	case "estimators":
		table, err := experiment.EstimatorComparison(r.ctx, r.sw.Tokens, 5, 200, max(2, r.sc.Repeats), 0.6, 4, r.seed)
		if err != nil {
			return err
		}
		fmt.Print(table.String())
		return os.WriteFile(filepath.Join(r.out, "estimators.txt"), []byte(table.String()), 0o644)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func resultFigure(id, title string, times []int, mi []float64) *experiment.FigureData {
	return &experiment.FigureData{
		ID:     id,
		Title:  title,
		Series: []experiment.Series{{Name: "I(W1..Wn)", X: experiment.FloatTimes(times), Y: mi}},
	}
}

func (r runner) saveFigure(fd *experiment.FigureData) error {
	return sops.WriteFigure(os.Stdout, r.out, fd)
}

func (r runner) saveConfigs(fig string, cfgs []experiment.TypedConfig) error {
	for i, c := range cfgs {
		name := fmt.Sprintf("%s-%02d.svg", fig, i)
		svg := plot.SVGScatter(c.Label, c.Pos, c.Types, 480)
		if err := os.WriteFile(filepath.Join(r.out, name), []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s, %d particles)\n", filepath.Join(r.out, name), c.Label, len(c.Pos))
	}
	return nil
}
