package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"govpic/internal/core"
	"govpic/internal/deck"
)

// TestInventory holds DESIGN.md's two inventories to the code, both
// ways. §3 must have a row for every directory holding a package or
// command, and §15 a row for every core.Config field (with the fields
// of the core structs nested in it), every deck.JSONConfig key and every
// vpic flag. A row naming something that no longer exists fails, and so
// does a row whose second cell is empty or reads "user only": a knob
// stays only if a deck, bench workload, validation case or CI command
// sets it, or it is a deployment setting.
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
		"core.Config": configFields(),
		"JSON key":    jsonKeys(),
		"vpic":        vpicFlags(t),
	}
	found := map[string]bool{}
	for _, tb := range tables(t, section(t, string(design), "## 15. ")) {
		for header, want := range knobs {
			if strings.Contains(tb.header, header) {
				compare(t, "§15 "+header+" table", tb, want)
				found[header] = true
			}
		}
	}
	for header := range knobs {
		if !found[header] {
			t.Errorf("DESIGN §15 has no table whose header names %s", header)
		}
	}
}

// table is one Markdown table: its header's first cell and, per row,
// the names in the first cell's code spans with the second cell.
type table struct {
	header string
	rows   []row
}

type row struct {
	names []string
	cell  string
}

// section returns the text of the DESIGN section whose heading starts
// with prefix, up to the next level-2 heading.
func section(t *testing.T, doc, prefix string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+prefix)
	if i < 0 {
		t.Fatalf("DESIGN.md has no %q section", strings.TrimSpace(prefix))
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
		first, second := strings.TrimSpace(cells[0]), strings.TrimSpace(cells[1])
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
			cur.rows = append(cur.rows, row{names: names, cell: second})
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
			t.Errorf("%s: a row names nothing in code spans (second cell %q)", what, r.cell)
		}
		for _, n := range r.names {
			if !want[n] {
				t.Errorf("%s: row names %q, which no longer exists", what, n)
			}
			seen[n] = true
		}
		if r.cell == "" || strings.Contains(strings.ToLower(r.cell), "user only") {
			t.Errorf("%s: row %v has no caller: %q", what, r.names, r.cell)
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

// vpicFlags names the flags vpic -h lists, each with its leading dash.
// The re-executed test binary also lists its own -test.* flags, which
// are not vpic's.
func vpicFlags(t *testing.T) map[string]bool {
	t.Helper()
	out, _ := vpicCmd("-h").CombinedOutput()
	names := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok && !strings.HasPrefix(rest, "test.") {
			name, _, _ := strings.Cut(rest, " ")
			names["-"+name] = true
		}
	}
	if !names["-deck"] || !names["-config"] {
		t.Fatalf("vpic -h lists no -deck or -config flag:\n%s", out)
	}
	return names
}
