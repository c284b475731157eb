// Command lbench runs the reproduction experiment suite (E1–E12) and
// prints one paper-shaped table per experiment, mirroring the claims of
// Feng & Yin, PODC 2018.
//
// Usage:
//
//	lbench [-quick] [-seed N] [-only E4]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced workloads (smoke run)")
	seed := fs.Int64("seed", 1, "random seed")
	only := fs.String("only", "", "comma-separated experiment IDs to run (e.g. E4,E8)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	steps := experiment.Suite(experiment.SuiteParams{Quick: *quick, Seed: *seed})
	if *only != "" {
		var err error
		if steps, err = selectSteps(steps, *only); err != nil {
			return err
		}
	}
	for _, s := range steps {
		t, err := s.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		fmt.Println(t.String())
	}
	return nil
}

// selectSteps returns the steps the comma-separated IDs name (matched
// without regard to case), in suite order. An ID that names no step is a
// flag error, reported before anything runs.
func selectSteps(steps []experiment.Step, only string) ([]experiment.Step, error) {
	known := map[string]bool{}
	ids := make([]string, len(steps))
	for i, s := range steps {
		ids[i] = s.ID
		known[strings.ToUpper(s.ID)] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !known[strings.ToUpper(id)] {
			return nil, fmt.Errorf("-only: unknown experiment %q (have %s)", id, strings.Join(ids, ","))
		}
		want[strings.ToUpper(id)] = true
	}
	var picked []experiment.Step
	for _, s := range steps {
		if want[strings.ToUpper(s.ID)] {
			picked = append(picked, s)
		}
	}
	return picked, nil
}
