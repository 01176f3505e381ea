package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"govpic/internal/push"
	"govpic/internal/testnet"
)

// TestMain lets the test binary act as the vpic CLI when re-executed
// with VPIC_E2E_MAIN=1: the multi-process tests below spawn real rank
// processes from the binary already built for this package.
func TestMain(m *testing.M) {
	if os.Getenv("VPIC_E2E_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// built holds the module's other commands, each built once per test
// binary by builtCmd.
var built struct {
	sync.Mutex
	dir   string
	paths map[string]string
}

// builtCmd builds govpic/cmd/<name> into a temporary directory the
// first time a test asks for it and returns the executable's path.
func builtCmd(t *testing.T, name string) string {
	t.Helper()
	built.Lock()
	defer built.Unlock()
	if p, ok := built.paths[name]; ok {
		return p
	}
	if built.dir == "" {
		dir, err := os.MkdirTemp("", "govpic-cmds-")
		if err != nil {
			t.Fatal(err)
		}
		built.dir, built.paths = dir, map[string]string{}
	}
	p := filepath.Join(built.dir, name)
	if out, err := exec.Command("go", "build", "-o", p, "govpic/cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	built.paths[name] = p
	return p
}

// vpicCmd builds an exec.Cmd that re-runs this test binary as the CLI.
func vpicCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VPIC_E2E_MAIN=1")
	return cmd
}

// TestDistributedCRCMatchesInProcess is the end-to-end form of the
// transport-transparency proof: the same deck run in one process and as
// two forked rank processes over TCP must write byte-identical
// state-CRC artifacts (exactly what the CI smoke step diffs) and
// byte-identical energy CSVs, since energies are bit-identical across
// transports. -every 0 samples the start only, on both paths.
func TestDistributedCRCMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	dir := t.TempDir()
	deckArgs := []string{"-deck", "thermal", "-nx", "16", "-ppc", "8",
		"-steps", "4", "-ranks", "2", "-workers", "1"}
	artifacts := func(name string, extra ...string) (crc, csv []byte, out []byte) {
		crcPath := filepath.Join(dir, "crc-"+name+".json")
		csvPath := filepath.Join(dir, "energy-"+name+".csv")
		args := append(append(append([]string{}, deckArgs...), extra...), "-state-crc", crcPath, "-out", csvPath)
		out, err := vpicCmd(args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s run: %v\n%s", name, err, out)
		}
		if crc, err = os.ReadFile(crcPath); err != nil {
			t.Fatal(err)
		}
		if csv, err = os.ReadFile(csvPath); err != nil {
			t.Fatal(err)
		}
		return crc, csv, out
	}
	for _, tc := range []struct {
		every   string
		samples int
	}{{"2", 3}, {"0", 1}} {
		a, csvA, _ := artifacts("local-"+tc.every, "-every", tc.every)
		b, csvB, out := artifacts("tcp-"+tc.every, "-every", tc.every, "-local-ranks", "2")
		if !bytes.Equal(a, b) {
			t.Errorf("-every %s: state CRC artifacts differ:\nin-process: %s\nTCP:        %s", tc.every, a, b)
		}
		if !bytes.Equal(csvA, csvB) {
			t.Errorf("-every %s: energy CSVs differ:\nin-process:\n%s\nTCP:\n%s", tc.every, csvA, csvB)
		}
		if n := bytes.Count(csvA, []byte("\n")); n != 1+tc.samples {
			t.Errorf("-every %s: energy CSV has %d lines, want a header and %d samples:\n%s", tc.every, n, tc.samples, csvA)
		}
		if !strings.Contains(string(out), "comm links:") {
			t.Errorf("distributed run did not print the comm report:\n%s", out)
		}
	}
}

// TestEndOfRunBlockSameOnBothPaths: rank 0 of a -local-ranks run prints
// the same end-of-run block as the in-process run (section table, sort
// passes, advances, comm tables, per-rank particles and imbalance), so
// the two outputs carry the same set of report line labels; only the
// timings differ. The two -comm-json artifacts carry the keys of the
// report golden file internal/dist tests the report JSON against.
func TestEndOfRunBlockSameOnBothPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	dir := t.TempDir()
	deckArgs := []string{"-deck", "thermal", "-nx", "16", "-ppc", "8",
		"-steps", "25", "-every", "25", "-ranks", "2", "-workers", "1"}
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "dist", "testdata", "reports.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := commJSONKeys(t, golden)
	var blocks [2]map[string]bool
	for i, extra := range [][]string{nil, {"-local-ranks", "2"}} {
		comm := filepath.Join(dir, fmt.Sprintf("comm-%d.json", i))
		out, err := vpicCmd(append(append(append([]string{}, deckArgs...), extra...), "-comm-json", comm)...).CombinedOutput()
		if err != nil {
			t.Fatalf("run %v: %v\n%s", extra, err, out)
		}
		blocks[i] = reportLabels(string(out))
		js, err := os.ReadFile(comm)
		if err != nil {
			t.Fatal(err)
		}
		if got := commJSONKeys(t, js); !reflect.DeepEqual(got, wantKeys) {
			t.Errorf("run %v: -comm-json keys %v, the report golden file's %v", extra, got, wantKeys)
		}
	}
	for _, want := range []string{"section", "push", "total", "comm i/o", "sort passes", "advances",
		"comm links", "0->1", "comm traffic by class", "ghostE", "particles", "per-rank particles"} {
		if !blocks[0][want] {
			t.Errorf("in-process block has no %q line: %v", want, blocks[0])
		}
	}
	if !reflect.DeepEqual(blocks[0], blocks[1]) {
		t.Errorf("report line labels differ:\nin-process: %v\nTCP:        %v", blocks[0], blocks[1])
	}
}

// reportLabels returns the labels of the end-of-run block's lines (from
// the perf table header on, rank 0's lines only for a multi-process
// run): a line's text up to its first colon or double space.
func reportLabels(out string) map[string]bool {
	labels := map[string]bool{}
	in := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[rank ") {
			var ok bool
			if line, ok = strings.CutPrefix(line, "[rank 0] "); !ok {
				continue
			}
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "section ") {
			in = true
		}
		if !in || line == "" || strings.HasPrefix(line, "wrote ") {
			continue
		}
		if i := strings.Index(line, "  "); i >= 0 {
			line = line[:i]
		}
		label, _, _ := strings.Cut(line, ":")
		labels[label] = true
	}
	return labels
}

// commJSONKeys returns the key sets of a -comm-json document: each
// record's top-level keys and those of its class and link entries.
func commJSONKeys(t *testing.T, js []byte) map[string][]string {
	t.Helper()
	var recs []map[string]json.RawMessage
	if err := json.Unmarshal(js, &recs); err != nil || len(recs) == 0 {
		t.Fatalf("-comm-json: %v (%d records)", err, len(recs))
	}
	keys := func(m map[string]json.RawMessage) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	first := func(name string) map[string]json.RawMessage {
		var items []map[string]json.RawMessage
		if err := json.Unmarshal(recs[0][name], &items); err != nil || len(items) == 0 {
			t.Fatalf("-comm-json %q: %v (%d entries)", name, err, len(items))
		}
		return items[0]
	}
	return map[string][]string{
		"record": keys(recs[0]),
		"class":  keys(first("classes")),
		"link":   keys(first("links")),
	}
}

// TestDistributedPeerKillDetected kills one rank process mid-run and
// requires the survivor to exit promptly with an attributed peer-death
// error instead of hanging.
func TestDistributedPeerKillDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	join := testnet.FreeAddr(t)

	// Enough steps that neither rank can finish before the kill.
	common := []string{"-deck", "thermal", "-nx", "16", "-ppc", "8",
		"-steps", "200000", "-every", "0", "-ranks", "2", "-workers", "1",
		"-join", join, "-peer-timeout", "500ms"}
	r0 := vpicCmd(append(common, "-rank", "0")...)
	var r0out bytes.Buffer
	r0.Stdout, r0.Stderr = &r0out, &r0out
	if err := r0.Start(); err != nil {
		t.Fatal(err)
	}
	defer r0.Process.Kill()
	r1 := vpicCmd(append(common, "-rank", "1")...)
	if err := r1.Start(); err != nil {
		t.Fatal(err)
	}
	defer r1.Process.Kill()

	// Let the world connect and take some steps, then kill rank 1.
	time.Sleep(1500 * time.Millisecond)
	if err := r1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	r1.Wait()

	done := make(chan error, 1)
	go func() { done <- r0.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("rank 0 exited cleanly after peer death:\n%s", r0out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("rank 0 hung after peer death (no failure detection):\n%s", r0out.String())
	}
	if !strings.Contains(r0out.String(), "dead") {
		t.Errorf("rank 0's error does not attribute the dead peer:\n%s", r0out.String())
	}
}

// TestRankMatrixCRCIdentical is the end-to-end acceptance matrix of the
// exchange schedule: the same 4-rank deck (a 2×1×2 decomposition, so
// the exchange crosses two axes) run {in-process, TCP multi-process} ×
// {-kernel=go, -kernel=asm} must write byte-identical state-CRC
// artifacts. The asm column runs where the build and CPU have it.
func TestRankMatrixCRCIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	dir := t.TempDir()
	deckArgs := []string{"-deck", "thermal", "-nx", "8", "-ppc", "8",
		"-steps", "4", "-every", "4", "-ranks", "4", "-workers", "1"}
	kernels := []string{push.KernelGo}
	if push.AsmAvailable() {
		kernels = append(kernels, push.KernelAsm)
	}
	type variant struct {
		name string
		args []string
	}
	var variants []variant
	for _, k := range kernels {
		variants = append(variants,
			variant{"local-kernel-" + k, []string{"-kernel=" + k}},
			variant{"tcp-kernel-" + k, []string{"-local-ranks", "4", "-kernel=" + k}})
	}
	artifacts := make([][]byte, len(variants))
	for i, v := range variants {
		crc := filepath.Join(dir, v.name+".json")
		args := append(append(append([]string{}, deckArgs...), v.args...), "-state-crc", crc)
		out, err := vpicCmd(args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s run: %v\n%s", v.name, err, out)
		}
		if artifacts[i], err = os.ReadFile(crc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(variants); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Errorf("state CRC differs between %s and %s:\n%s\nvs\n%s",
				variants[0].name, variants[i].name, artifacts[0], artifacts[i])
		}
	}
}

// TestRemovedLanesFlagRejected: -lanes selected a push sweep until there
// was only one, -overlap=false the blocking exchange schedule until there
// was only one, -dump and -summary wrote artifacts nothing read, and
// -heartbeat is PeerTimeout/8; a script that still passes any of them
// must fail at flag parsing with the flag named, not run with the knob
// ignored.
func TestRemovedLanesFlagRejected(t *testing.T) {
	for _, removed := range [][]string{{"-lanes", "1"}, {"-overlap=false"}, {"-dump", "d"}, {"-summary", "s"}, {"-heartbeat", "50ms"}} {
		name, _, _ := strings.Cut(removed[0], "=")
		out, err := vpicCmd(append([]string{"-deck", "thermal", "-steps", "1"}, removed...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined: "+name) {
			t.Errorf("vpic %v: err = %v, want exit 2 with flag's usage error\n%s", removed, err, out)
		}
	}
}

// TestRemovedServiceFlagsRejected: vpicd's -queue is the constant
// queue depth 16 and -validate's report is cmd/validate's, and the
// three flags that registered vpicd with a multi-host control plane
// went with it. Each must fail at flag parsing, named.
func TestRemovedServiceFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		cmd     string
		removed []string
	}{
		{"vpicd", []string{"-queue", "4"}},
		{"vpicd", []string{"-validate", "fast"}},
		{"vpicd", []string{"-coordinator", "http://127.0.0.1:8990"}},
		{"vpicd", []string{"-advertise", "http://127.0.0.1:8970"}},
		{"vpicd", []string{"-heartbeat", "500ms"}},
	} {
		out, err := exec.Command(builtCmd(t, tc.cmd), tc.removed...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined: "+tc.removed[0]) {
			t.Errorf("%s %v: err = %v, want exit 2 with flag's usage error\n%s", tc.cmd, tc.removed, err, out)
		}
	}
}

// TestDeckFlagsMatchConfig: the deck and sizing flags fill the same
// deck.JSONConfig a -config file decodes into, so one deck spelled
// either way writes byte-identical state-CRC artifacts — landau (whose
// flag path once had defaults of its own), lpi through -a0, and tnsa
// (which the flag path once refused).
func TestDeckFlagsMatchConfig(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flags  []string
		config string
	}{
		{[]string{"-deck", "landau", "-nx", "64", "-ppc", "32", "-steps", "20"}, `{"deck":"landau","nx":64,"ppc":32,"steps":20}`},
		{[]string{"-deck", "lpi", "-a0", "0.05", "-ppc", "16", "-steps", "20"}, `{"deck":"lpi","a0":0.05,"ppc":16,"steps":20}`},
		{[]string{"-deck", "tnsa", "-a0", "3", "-ppc", "8", "-steps", "5"}, `{"deck":"tnsa","a0":3,"ppc":8,"steps":5}`},
	} {
		cfg := filepath.Join(dir, tc.flags[1]+".json")
		if err := os.WriteFile(cfg, []byte(tc.config), 0o644); err != nil {
			t.Fatal(err)
		}
		var crcs [2][]byte
		for i, args := range [][]string{tc.flags, {"-config", cfg}} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", tc.flags[1], i))
			out, err := vpicCmd(append(append([]string{}, args...), "-state-crc", path)...).CombinedOutput()
			if err != nil {
				t.Fatalf("vpic %v: %v\n%s", args, err, out)
			}
			if crcs[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(crcs[0], crcs[1]) {
			t.Errorf("%v and -config %s differ:\n%s\nvs\n%s", tc.flags, tc.config, crcs[0], crcs[1])
		}
	}
}

// TestDistributedRejectsInProcessFlags: the profiles, which are of one
// process, fail a -local-ranks or -rank run before any rank starts,
// naming every one given, instead of being dropped with exit 0.
func TestDistributedRejectsInProcessFlags(t *testing.T) {
	deckArgs := []string{"-deck", "thermal", "-nx", "16", "-ppc", "8", "-steps", "6", "-ranks", "2"}
	for _, tc := range []struct {
		args, want []string
	}{
		{[]string{"-rank", "1", "-join", "127.0.0.1:1", "-cpuprofile", "c", "-memprofile", "m"},
			[]string{"-cpuprofile", "-memprofile"}},
	} {
		out, err := vpicCmd(append(append([]string{}, deckArgs...), tc.args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || strings.Contains(string(out), "connected") {
			t.Errorf("vpic %v: err = %v, want a non-zero exit before the run starts\n%s", tc.args, err, out)
			continue
		}
		for _, name := range tc.want {
			if !strings.Contains(string(out), name) {
				t.Errorf("vpic %v: error does not name %s\n%s", tc.args, name, out)
			}
		}
	}
}

// TestBalanceCheckpointRejected: "checkpoint" selected the swap-and-
// rebuild balancer until the online reshape learned to jump straight to
// the bisection cuts; a script that still passes it must fail loudly
// with the value and the accepted modes named, not run unbalanced.
func TestBalanceCheckpointRejected(t *testing.T) {
	out, err := vpicCmd("-deck", "spike", "-ranks", "2", "-nx", "32", "-ppc", "8",
		"-steps", "12", "-balance", "checkpoint").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), `"checkpoint"`) ||
		!strings.Contains(string(out), "off|online") {
		t.Fatalf("vpic -balance checkpoint: err = %v, want a non-zero exit naming the value and off|online\n%s", err, out)
	}
}

// TestOnlineBalanceCRCMatchesTCP: the CI balance smoke's online spike
// run — whose first check jumps the cuts off uniform — must write a
// byte-identical state-CRC artifact in-process and as four TCP rank
// processes, so the slab transfer is as transport-transparent as the
// per-step exchanges.
func TestOnlineBalanceCRCMatchesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	dir := t.TempDir()
	deckArgs := []string{"-deck", "spike", "-nx", "32", "-ppc", "8", "-steps", "40",
		"-ranks", "4", "-balance=online", "-balance-interval", "2", "-balance-threshold", "1.15"}
	var artifacts [2][]byte
	for i, extra := range [][]string{nil, {"-local-ranks", "4"}} {
		crc := filepath.Join(dir, fmt.Sprintf("crc-%d.json", i))
		out, err := vpicCmd(append(append(append([]string{}, deckArgs...), extra...), "-state-crc", crc)...).CombinedOutput()
		if err != nil {
			t.Fatalf("run %v: %v\n%s", extra, err, out)
		}
		if i == 0 && strings.Contains(string(out), "x-cuts [0 8 16 24 32]") {
			t.Fatalf("the online run never moved a cut:\n%s", out)
		}
		if artifacts[i], err = os.ReadFile(crc); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Errorf("state CRC differs in-process vs TCP:\n%s\nvs\n%s", artifacts[0], artifacts[1])
	}
}
