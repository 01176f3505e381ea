package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},  // 9 beyond the median: not even p50
		{20, 50, true},  // exactly 10 beyond p50
		{300, 95, true}, // 15 beyond p95, 3 beyond p99
		{600, 95, true}, // 30 beyond p95, 6 beyond p99
		{999, 95, true}, // 9 beyond p99
		{1000, 99, true},
		{1600, 99, true},
		{25000, 99.9, true}, // 25 beyond p99.9, 2 beyond p99.99
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[99-i] = float64(i + 1) // 1..100, descending
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.median and
// statistics.quantiles(v, n=4) return: the driver takes spreads with
// those, so the benchmark's own spread column must agree.
func TestMedianQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{2, 4}, 3, 1.5, 4.5},
		{[]float64{10.2, 9.9, 10.0, 10.4, 9.7, 10.1, 10.3}, 10.1, 9.9, 10.3},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if m := median(c.v); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %g quartiles %g %g; want %g %g %g", c.v, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %g, want 1", s)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestSeedReachesLoader(t *testing.T) {
	const seed = 0xfeedbeef
	for _, wl := range workloads {
		if wl.Deck == nil {
			continue
		}
		d, err := wl.Deck(seed)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		loads := 0
		for i, sp := range d.Cfg.Species {
			if sp.Load == nil {
				continue
			}
			loads++
			if sp.Load.Seed != seed+uint64(i) {
				t.Errorf("%s: species %q loads with seed %d, want %d", wl.Name, sp.Name, sp.Load.Seed, seed+uint64(i))
			}
		}
		if loads == 0 {
			t.Errorf("%s: no species is loaded", wl.Name)
		}
		// A second deck must not see the first one's seed through a
		// shared loader.Params.
		d2, err := wl.Deck(seed + 100)
		if err != nil {
			t.Fatal(err)
		}
		if d.Cfg.Species[0].Load.Seed != seed || d2.Cfg.Species[0].Load.Seed != seed+100 {
			t.Errorf("%s: decks share loader.Params", wl.Name)
		}
	}
}

// benchmarkJSON mirrors the contract's schema; unknown keys fail.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./cmd/bench" || len(b.Paths) != 1 || b.Paths[0] != "cmd/bench" {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the workloads are sized for %d", b.RunSeconds, referenceSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the code", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		use(m.Name)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the code %+v", i, m, want)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %g", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		use(m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the code %+v", i, m, want)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestSmoke runs all seven workloads end to end at 1/50 length, as
// -smoke does, and the traced run with its layer pass on the cheapest
// one: every metric BENCHMARK.json names must be produced, finite, and
// no correctness check may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	outDir = t.TempDir()
	const seconds = referenceSeconds / 50.0
	check := func(wl *workload, traced bool, defs []metricDef) {
		res, err := runWorkload(wl, 42, seconds, traced)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, failed %d of %d", wl.Name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", wl.Name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", wl.Name, d.Name, m, ok)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g must be positive", wl.Name, d.Name, m.Value)
			}
		}
	}
	for i := range workloads {
		check(&workloads[i], false, endToEnd)
	}
	wl, err := findWorkload("exchange.2rank")
	if err != nil {
		t.Fatal(err)
	}
	check(wl, true, perLayer)
	trace, err := os.ReadFile(filepath.Join(outDir, "trace-exchange.2rank.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace does not load: %v (%d events)", err, len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args["workload"] != "exchange.2rank" {
			t.Fatalf("bad trace event %+v", e)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	fp := fingerprint{CPU: "cpu", NProc: 2, GOMAXPROCS: 2, Go: "go1.24", Kernel: "asm", Commit: "aaa"}
	mk := func(commit string, rate []float64) *resultFile {
		f := fp
		f.Commit = commit
		r := &resultFile{Fingerprint: f, Sets: len(rate), Workloads: map[string]map[string]*series{}}
		for _, wl := range workloads {
			for _, d := range endToEnd {
				for _, v := range rate {
					if d.Better == "lower" {
						v = 100 / v
					}
					r.record(wl.Name, map[string]metric{d.Name: {Value: v, Unit: d.Unit}})
				}
			}
		}
		return r
	}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	var buf bytes.Buffer

	if bad, err := compare(&buf, mk("aaa", steady), mk("bbb", steady)); err != nil || bad != 0 {
		t.Errorf("identical results: %d bad rows, %v\n%s", bad, err, buf.String())
	}
	slower := []float64{5, 5.05, 4.95, 5.02, 4.98}
	buf.Reset()
	bad, err := compare(&buf, mk("aaa", steady), mk("bbb", slower))
	if err != nil || bad != len(workloads)*len(endToEnd) || !strings.Contains(buf.String(), verdictRegression) {
		t.Errorf("halved rates: %d bad rows, %v\n%s", bad, err, buf.String())
	}
	// Faster is never a regression.
	if bad, _ := compare(&bytes.Buffer{}, mk("aaa", slower), mk("bbb", steady)); bad != 0 {
		t.Errorf("doubled rates: %d bad rows", bad)
	}
	noisy := []float64{10, 14, 7, 12, 8}
	buf.Reset()
	if bad, _ := compare(&buf, mk("aaa", steady), mk("bbb", noisy)); bad == 0 || !strings.Contains(buf.String(), verdictUnresolved) {
		t.Errorf("a spread wider than the bound must be unresolved:\n%s", buf.String())
	}

	other := mk("bbb", steady)
	other.Fingerprint.CPU = "another cpu"
	if _, err := compare(&buf, mk("aaa", steady), other); err == nil {
		t.Error("compared results from different hosts")
	}
}
