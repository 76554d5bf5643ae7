// Command orpheus-bench regenerates the tables and figures of the OrpheusDB
// paper's evaluation at a configurable scale. Each subcommand prints the
// rows/series of one artifact; `all` runs everything.
//
// Usage:
//
//	orpheus-bench [-scale 0.01] [-seed 42] [-samples 30] <artifact>
//
// Artifacts: table1 table2 fig3 fig9 fig10 fig11 fig12 fig13 fig14 fig15
// fig19 fig20 fig21 fig22 fig23 all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"orpheusdb/internal/experiments"
)

var (
	scale   = flag.Float64("scale", 0.01, "dataset scale relative to the paper (1.0 = full size)")
	seed    = flag.Int64("seed", 42, "generator seed")
	samples = flag.Int("samples", 30, "versions sampled per checkout-time estimate (paper: 100)")
	budget  = flag.Duration("budget", 2*time.Minute, "per-algorithm time budget (paper: 10h)")
	stream  = flag.Int("versions", 1500, "streamed commits for fig14/fig15 (paper: 10,000)")
)

func main() {
	flag.Parse()
	os.Exit(run(flag.Args()))
}

// run reproduces each named artifact in turn and returns the exit status.
func run(artifacts []string) int {
	if len(artifacts) == 0 {
		fmt.Fprintln(os.Stderr, "usage: orpheus-bench [flags] <table1|table2|fig3|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig19|fig20|fig21|fig22|fig23|all>")
		return 2
	}
	for _, art := range artifacts {
		if err := runArtifact(art); err != nil {
			fmt.Fprintf(os.Stderr, "orpheus-bench: %s: %v\n", art, err)
			return 1
		}
	}
	return 0
}

func sweepCfg() experiments.SweepConfig {
	cfg := experiments.DefaultSweepConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Samples = *samples
	cfg.Budget = *budget
	return cfg
}

var (
	sciSmall = []string{"SCI_1M", "SCI_2M", "SCI_5M", "SCI_8M"}
	sciPart  = []string{"SCI_1M", "SCI_5M", "SCI_10M"}
	curPart  = []string{"CUR_1M", "CUR_5M", "CUR_10M"}
)

func runArtifact(name string) error {
	start := time.Now()
	defer func() { fmt.Printf("-- %s done in %v\n\n", name, time.Since(start)) }()
	switch name {
	case "table1":
		return table1()
	case "table2":
		rep, _, err := experiments.Table2(append(append([]string{}, sciSmall...), "SCI_10M", "CUR_1M", "CUR_5M", "CUR_10M"), *scale, *seed)
		if err != nil {
			return err
		}
		rep.Print(os.Stdout)
		return nil
	case "fig3":
		_, reps, err := experiments.Fig3(sciSmall, *scale, *seed, nil)
		if err != nil {
			return err
		}
		printAll(reps)
		return nil
	case "fig9":
		return fig9(append(append([]string{}, sciPart...), curPart...), false)
	case "fig10":
		return fig1011(sciPart)
	case "fig11":
		return fig1011(curPart)
	case "fig12":
		_, rep, err := experiments.Fig1213(sciPart, sweepCfg())
		if err != nil {
			return err
		}
		rep.Print(os.Stdout)
		return nil
	case "fig13":
		_, rep, err := experiments.Fig1213(curPart, sweepCfg())
		if err != nil {
			return err
		}
		rep.Print(os.Stdout)
		return nil
	case "fig14":
		return fig1415(1.5)
	case "fig15":
		return fig1415(2.0)
	case "fig19":
		cfg := experiments.DefaultFig19Config()
		cfg.Seed = *seed
		_, reps, err := experiments.Fig19(cfg)
		if err != nil {
			return err
		}
		printAll(reps)
		return nil
	case "fig20", "fig22":
		return fig9(sciPart, true)
	case "fig21", "fig23":
		return fig9(curPart, true)
	case "all":
		for _, a := range []string{"table1", "table2", "fig3", "fig9", "fig10", "fig11",
			"fig12", "fig13", "fig14", "fig15", "fig19", "fig20", "fig21"} {
			if err := runArtifact(a); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown artifact %q", name)
}

func printAll(reps []*experiments.Report) {
	for _, r := range reps {
		r.Print(os.Stdout)
	}
}

func table1() error {
	fmt.Println("== Table 1: SQL translations for checkout and commit ==")
	for _, kind := range experiments.AllModelKinds() {
		fmt.Printf("\n[%s]\n", kind)
		fmt.Println("CHECKOUT:", experiments.CheckoutSQL(kind, "cvd", "t_prime", 7))
		fmt.Println("COMMIT:  ", experiments.CommitSQL(kind, "cvd", "t_prime", 8))
	}
	fmt.Println()
	return nil
}

func fig9(names []string, estOnly bool) error {
	cfg := sweepCfg()
	for _, name := range names {
		pts, rep, err := experiments.Fig9(name, cfg)
		if err != nil {
			return err
		}
		if estOnly {
			est, real := experiments.Fig2023(pts)
			est.Print(os.Stdout)
			real.Print(os.Stdout)
		} else {
			rep.Print(os.Stdout)
		}
	}
	return nil
}

func fig1011(names []string) error {
	cfg := sweepCfg()
	for _, name := range names {
		_, rep, err := experiments.Fig1011(name, cfg)
		if err != nil {
			return err
		}
		rep.Print(os.Stdout)
	}
	return nil
}

func fig1415(gamma float64) error {
	cfg := experiments.DefaultFig1415Config()
	cfg.Versions = *stream
	cfg.Seed = *seed
	_, reps, err := experiments.Fig1415(gamma, cfg)
	if err != nil {
		return err
	}
	printAll(reps)
	return nil
}
