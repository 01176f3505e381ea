// Command lpi runs the paper's parameter study: laser reflectivity as a
// function of laser intensity in a hohlraum-like plasma (E7), plus the
// trapping (E8) and time-history burstiness (E9) diagnostics and the
// thermal-noise dispersion diagram. It prints tables; it checks no band
// (the gated physics is cmd/validate's).
//
// Usage:
//
//	lpi                                # default 5-point sweep, small tier
//	lpi -a0 0.01,0.02,0.04,0.07,0.1 -scale medium -csv sweep.csv
//	lpi -experiment trapping -a0max 0.05
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"govpic/internal/diag"
)

func main() {
	var (
		exp    = flag.String("experiment", "reflectivity", "reflectivity | trapping | history | dispersion")
		a0list = flag.String("a0", "0.01,0.02,0.04,0.07,0.1", "comma-separated pump strengths")
		a0max  = flag.Float64("a0max", 0.05, "pump strength for trapping/history high case")
		a0min  = flag.Float64("a0min", 0.01, "pump strength for history low case")
		scale  = flag.String("scale", "small", "small | medium | large")
		csv    = flag.String("csv", "", "also write the table as CSV")
	)
	flag.Parse()
	tier := "scaled-" + *scale

	var (
		r   result
		err error
	)
	switch *exp {
	case "reflectivity":
		var a0s []float64
		if a0s, err = parseFloats(*a0list); err == nil {
			r, err = e7Reflectivity(a0s, tier)
		}
	case "trapping":
		r, err = e8Trapping(*a0max, tier)
	case "history":
		r, err = e9TimeHistory(*a0min, *a0max, tier)
	case "dispersion":
		r, err = dispersionDiagram(512, 1024)
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.Format())

	if *csv != "" {
		if err := writeCSV(*csv, r); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csv)
	}
}

// writeCSV writes r's table to path; a failed close is a failed write.
func writeCSV(path string, r result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := diag.WriteCSV(f, r.Headers, r.Rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad a0 list entry %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// result is one experiment's output table.
type result struct {
	Name    string
	Headers []string
	Rows    [][]float64
	// Text is preformatted content printed after the table.
	Text string
}

// Format renders the result's table with its name and any extra text.
func (r result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", r.Name)
	if len(r.Headers) > 0 {
		for i, h := range r.Headers {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%14s", h)
		}
		sb.WriteString("\n")
		for _, row := range r.Rows {
			for i, v := range row {
				if i > 0 {
					sb.WriteString("  ")
				}
				fmt.Fprintf(&sb, "%14.5g", v)
			}
			sb.WriteString("\n")
		}
	}
	if r.Text != "" {
		sb.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
