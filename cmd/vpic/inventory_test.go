package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/server"
	"govpic/internal/transport"
	"govpic/internal/valid"
)

// TestInventory holds DESIGN.md's two inventories to the code, both
// ways. §3 must have a row for every directory holding a package or
// command, and §15 a row for every settable value: the fields of
// core.Config (with the fields of the core structs nested in it),
// transport.Options and server.Config, every deck.JSONConfig key, and
// every flag vpic and vpicd list under -h. A row naming something that
// no longer exists fails, and so does a row whose second cell names no
// setter: a knob stays only if a deck, bench workload, validation case
// or CI command sets it, it is a deployment setting, or the program
// itself fills it.
func TestInventory(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	modules := tables(t, section(t, string(design), "## 3. "))
	if len(modules) != 1 {
		t.Fatalf("DESIGN §3 has %d tables, want the one module map", len(modules))
	}
	compare(t, "§3 module map", modules[0], packageDirs(t, filepath.Join("..", "..")))

	knobs := map[string]map[string]bool{
		"`core.Config` field":       configFields(),
		"`transport.Options` field": fieldNames(transport.Options{}),
		"`server.Config` field":     fieldNames(server.Config{}),
		"deck JSON key":             jsonKeys(),
		"`vpic` flag":               vpicFlags(t),
		"`vpicd` flag":              helpFlags(t, builtCmd(t, "vpicd")),
	}
	found := map[string]bool{}
	for _, tb := range tables(t, section(t, string(design), "## 15. ")) {
		if want, ok := knobs[tb.header]; ok {
			compare(t, "§15 "+tb.header+" table", tb, want)
			found[tb.header] = true
			for _, r := range tb.rows {
				if !setter.MatchString(r.cells[1]) {
					t.Errorf("§15 %s table: row %v names no setter: %q", tb.header, r.names, r.cells[1])
				}
			}
		}
	}
	for header := range knobs {
		if !found[header] {
			t.Errorf("DESIGN §15 has no table headed %s", header)
		}
	}
}

// Document budgets: DESIGN.md and EXPERIMENTS.md hold decisions and
// findings, and git holds their history.
const (
	designBudget      = 35000 // bytes
	experimentsBudget = 60000 // bytes
	entryLines        = 40    // per EXPERIMENTS S/P entry
	entryBytes        = 3000  // per EXPERIMENTS S/P entry
)

var (
	// repoPath matches a path under one of the module's source trees.
	repoPath = regexp.MustCompile(`\b(?:internal|cmd|examples)/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)
	// setter matches a §15 "set by" cell that names who sets the knob.
	setter = regexp.MustCompile(`\b(deck|bench|valid|CI|deployment|the program)\b`)
	// commitSpan matches an abbreviated or full commit hash in a code span.
	commitSpan = regexp.MustCompile("`[0-9a-f]{7,40}`")
	// testName matches a test, benchmark or fuzz target named as pkg.Name.
	testName = regexp.MustCompile(`^(\w+)\.((?:Test|Benchmark|Fuzz)\w*)$`)
)

// TestDocBudget holds DESIGN.md and EXPERIMENTS.md to their byte
// budgets, every EXPERIMENTS S/P entry to 40 lines and 3 000 bytes
// with the commit it describes, every row of the EXPERIMENTS ledger of
// older entries to a commit hash and an id that is no entry, and the
// paths and runnable names the
// documents cite to the tree. A repo path in DESIGN.md or README.md
// must exist, every top-level DESIGN section must name one that does,
// and every code span in a DESIGN §4 "Runs in" cell must be a
// registered validate case, a BENCHMARK.json workload or a pkg.Test,
// pkg.Benchmark or pkg.Fuzz its package declares.
func TestDocBudget(t *testing.T) {
	root := filepath.Join("..", "..")
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design, experiments, readme := read("DESIGN.md"), read("EXPERIMENTS.md"), read("README.md")

	if len(design) > designBudget {
		t.Errorf("DESIGN.md is %d bytes, budget %d", len(design), designBudget)
	}
	if len(experiments) > experimentsBudget {
		t.Errorf("EXPERIMENTS.md is %d bytes, budget %d", len(experiments), experimentsBudget)
	}
	entryIDs := map[string]bool{}
	for _, e := range entries(experiments) {
		head, _, _ := strings.Cut(e, "\n")
		id, _, _ := strings.Cut(strings.TrimPrefix(head, "## "), " ")
		entryIDs[id] = true
		if n := strings.Count(e, "\n") + 1; n > entryLines {
			t.Errorf("EXPERIMENTS %q runs %d lines, budget %d", head, n, entryLines)
		}
		if len(e) > entryBytes {
			t.Errorf("EXPERIMENTS %q is %d bytes, budget %d", head, len(e), entryBytes)
		}
		if !commitSpan.MatchString(e) {
			t.Errorf("EXPERIMENTS %q names no commit hash", head)
		}
	}
	for _, tb := range tables(t, section(t, experiments, "## Ledger")) {
		for _, r := range tb.rows {
			id := r.cells[0]
			if !commitSpan.MatchString(r.cells[len(r.cells)-1]) {
				t.Errorf("EXPERIMENTS ledger row %s names no commit hash", id)
			}
			if entryIDs[id] {
				t.Errorf("EXPERIMENTS %s is both a ledger row and an entry", id)
			}
		}
	}

	exists := func(path string) bool {
		_, err := os.Stat(filepath.Join(root, path))
		return err == nil
	}
	for name, doc := range map[string]string{"DESIGN.md": design, "README.md": readme} {
		for _, p := range repoPath.FindAllString(doc, -1) {
			if !exists(p) {
				t.Errorf("%s names %s, which does not exist", name, p)
			}
		}
	}
	for _, sec := range strings.Split(design, "\n## ")[1:] {
		head, _, _ := strings.Cut(sec, "\n")
		named := false
		for _, p := range repoPath.FindAllString(sec, -1) {
			named = named || exists(p)
		}
		if !named {
			t.Errorf("DESIGN section %q names no package or file that exists", head)
		}
	}

	runnable := runnableNames(t, root)
	for _, tb := range tables(t, section(t, design, "## 4. ")) {
		for _, r := range tb.rows {
			runsIn := r.cells[len(r.cells)-1]
			spans := strings.Split(runsIn, "`")
			for i := 1; i < len(spans); i += 2 {
				if err := runnable(spans[i]); err != nil {
					t.Errorf("DESIGN §4 %s \"Runs in\": %v", r.cells[0], err)
				}
			}
		}
	}
}

// entries returns the EXPERIMENTS entries headed "## S<n>" or "## P<n>",
// each up to the next level-2 heading, without trailing blank lines.
func entries(doc string) []string {
	var out []string
	for _, sec := range strings.Split(doc, "\n## ")[1:] {
		if len(sec) > 1 && (sec[0] == 'S' || sec[0] == 'P') && sec[1] >= '0' && sec[1] <= '9' {
			out = append(out, "## "+strings.TrimRight(sec, "\n"))
		}
	}
	return out
}

// runnableNames returns a check that a name is a registered validate
// case, a BENCHMARK.json workload, or a test, benchmark or fuzz target
// declared in the _test.go files of the package directory named pkg.
func runnableNames(t *testing.T, root string) func(string) error {
	t.Helper()
	cases := valid.Builtin()
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	pkgDir := map[string]string{}
	for dir := range packageDirs(t, root) {
		pkgDir[filepath.Base(dir)] = dir
	}
	return func(name string) error {
		if _, ok := cases.Lookup(name); ok || workloads[name] {
			return nil
		}
		m := testName.FindStringSubmatch(name)
		if m == nil {
			return fmt.Errorf("%q is no validate case, bench workload or pkg.Test", name)
		}
		dir, ok := pkgDir[m[1]]
		if !ok {
			return fmt.Errorf("%q: no package %s", name, m[1])
		}
		files, _ := filepath.Glob(filepath.Join(root, dir, "*_test.go"))
		decl := regexp.MustCompile(`(?m)^func ` + m[2] + `\(`)
		for _, f := range files {
			if src, err := os.ReadFile(f); err == nil && decl.Match(src) {
				return nil
			}
		}
		return fmt.Errorf("%q: package %s declares no %s", name, dir, m[2])
	}
}

// table is one Markdown table: its header's first cell and, per row,
// the names in the first cell's code spans with every cell.
type table struct {
	header string
	rows   []row
}

type row struct {
	names []string
	cells []string // trimmed
}

// section returns the text of doc's section whose heading starts with
// prefix, up to the next level-2 heading.
func section(t *testing.T, doc, prefix string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+prefix)
	if i < 0 {
		t.Fatalf("no %q section", strings.TrimSpace(prefix))
	}
	rest := doc[i+1:]
	if j := strings.Index(rest, "\n## "); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// tables parses every Markdown table of a section. A code span in a
// first cell may hold several space-separated names.
func tables(t *testing.T, sec string) []table {
	t.Helper()
	var out []table
	var cur *table
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			cur = nil
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) < 2 {
			t.Fatalf("table line with one cell: %q", line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		first := cells[0]
		switch {
		case cur == nil:
			out = append(out, table{header: first})
			cur = &out[len(out)-1]
		case strings.HasPrefix(first, "---"):
		default:
			var names []string
			spans := strings.Split(first, "`")
			for i := 1; i < len(spans); i += 2 {
				names = append(names, strings.Fields(spans[i])...)
			}
			cur.rows = append(cur.rows, row{names: names, cells: cells})
		}
	}
	return out
}

// compare fails on every name of want without a row, every row name not
// in want, and every row with an empty or "user only" second cell.
func compare(t *testing.T, what string, tb table, want map[string]bool) {
	t.Helper()
	seen := map[string]bool{}
	for _, r := range tb.rows {
		if len(r.names) == 0 {
			t.Errorf("%s: a row names nothing in code spans (second cell %q)", what, r.cells[1])
		}
		for _, n := range r.names {
			if !want[n] {
				t.Errorf("%s: row names %q, which no longer exists", what, n)
			}
			seen[n] = true
		}
		if cell := r.cells[1]; cell == "" || strings.Contains(strings.ToLower(cell), "user only") {
			t.Errorf("%s: row %v has no caller: %q", what, r.names, cell)
		}
	}
	var missing []string
	for n := range want {
		if !seen[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	for _, n := range missing {
		t.Errorf("%s: %q has no row", what, n)
	}
}

// packageDirs returns, relative to root, every directory holding a
// non-test Go file.
func packageDirs(t *testing.T, root string) map[string]bool {
	t.Helper()
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !e.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			dirs[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// configFields names core.Config's fields, and the fields of each core
// struct type nested in one as Type.Field (SpeciesConfig.Name).
func configFields() map[string]bool {
	names := map[string]bool{}
	cfg := reflect.TypeOf(core.Config{})
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		names[f.Name] = true
		typ := f.Type
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() == reflect.Struct && typ.PkgPath() == cfg.PkgPath() {
			for j := 0; j < typ.NumField(); j++ {
				names[typ.Name()+"."+typ.Field(j).Name] = true
			}
		}
	}
	return names
}

// jsonKeys names deck.JSONConfig's JSON keys.
func jsonKeys() map[string]bool {
	names := map[string]bool{}
	typ := reflect.TypeOf(deck.JSONConfig{})
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		names[key] = true
	}
	return names
}

// fieldNames names the fields of a struct value.
func fieldNames(v any) map[string]bool {
	names := map[string]bool{}
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumField(); i++ {
		names[typ.Field(i).Name] = true
	}
	return names
}

// vpicFlags names the flags vpic -h lists, each with its leading dash.
func vpicFlags(t *testing.T) map[string]bool {
	t.Helper()
	names := flagNames(vpicCmd("-h"))
	if !names["-deck"] || !names["-config"] {
		t.Fatalf("vpic -h lists no -deck or -config flag: %v", names)
	}
	return names
}

// helpFlags names the flags a built command's -h lists.
func helpFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	names := flagNames(exec.Command(path, "-h"))
	if !names["-addr"] {
		t.Fatalf("%s -h lists no -addr flag: %v", path, names)
	}
	return names
}

// flagNames runs a command's -h and names the flags it lists, each with
// its leading dash. The re-executed test binary also lists its own
// -test.* flags, which are not vpic's.
func flagNames(cmd *exec.Cmd) map[string]bool {
	out, _ := cmd.CombinedOutput()
	names := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok && !strings.HasPrefix(rest, "test.") {
			name, _, _ := strings.Cut(rest, " ")
			names["-"+name] = true
		}
	}
	return names
}
