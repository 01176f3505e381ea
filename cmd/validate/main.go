// Command validate runs the physics-validation suite (internal/valid):
// every case builds a deck through the JSON front end, runs it, extracts
// its observables, and verdicts them against internal/theory analytic
// values or committed reference bands. The structured report is written
// as VALID_<date>.json; a failing case exits 1 — CI runs the fast tier
// on every push.
//
// Usage:
//
//	validate -tier fast                 # CI tier: seconds per case
//	validate -tier full                 # adds the longer cases
//	validate -case tnsa-ion-acceleration
//	validate -tier fast -rank-world 2   # every case on a 2-rank world
package main

import (
	"flag"
	"fmt"
	"os"

	"govpic/internal/valid"
)

func main() {
	tier := flag.String("tier", "fast", "suite tier: fast | full")
	one := flag.String("case", "", "run a single named case instead of a tier")
	out := flag.String("out", ".", "directory for the VALID_<date>.json report")
	list := flag.Bool("list", false, "list registered cases and exit")
	rankWorld := flag.Int("rank-world", 0, "decompose every case into N ranks where its deck allows (0 = each case's own rank count)")
	flag.Parse()

	reg := valid.Builtin()
	if *list {
		for _, c := range reg.Cases(valid.TierFull) {
			fmt.Printf("%-24s [%s] %s\n", c.Name, c.Tier, c.About)
		}
		return
	}
	t := valid.Tier(*tier)
	if t != valid.TierFast && t != valid.TierFull {
		fatal(fmt.Errorf("unknown tier %q (fast|full)", *tier))
	}

	cases := reg.Cases(t)
	if *one != "" {
		c, ok := reg.Lookup(*one)
		if !ok {
			fatal(fmt.Errorf("unknown case %q (use -list)", *one))
		}
		cases = []valid.Case{c}
	}
	if *rankWorld > 1 {
		for i := range cases {
			cases[i].Spec.Ranks = *rankWorld
		}
	}
	rep := valid.RunSuite(cases, t, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})

	path, err := rep.Write(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("report: %s (%d cases, %.1fs)\n", path, len(rep.Cases), rep.Seconds)
	if !rep.Pass {
		fmt.Println("validate: FAIL")
		os.Exit(1)
	}
	fmt.Println("validate: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "validate:", err)
	os.Exit(1)
}
