//go:build mutants

// Package mutants is the committed mutation corpus: each row of
// mutants.txt names one source edit that breaks an invariant and the
// tests that must notice it. The runner applies every row with
// `go test -overlay` — the mutant replaces its file at build time, the
// checkout is never written — and fails on any mutant that survives.
//
// Run it with `make mutants`; the build tag keeps it out of
// `go test ./...`.
//
// mutants.txt holds one row per line, five tab-separated fields:
//
//	file	old	new	package	run
//
// file is relative to the module root; old and new are Go-quoted
// strings (escapes such as \n and \t allowed); package is one or more
// space-separated package patterns `go test` builds; run is the -run
// pattern whose tests must fail with the mutant in place. Blank lines
// and lines starting with # are ignored. A row is an error when its old
// text does not occur exactly once in the file, or when the mutant does
// not compile.
package mutants

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// root is the module root, relative to this package's directory.
const root = "../.."

// rowTimeout bounds one row's test run. Every row finishes in seconds
// when its mutant is killed by an assertion; a test that waits on a
// peer without a deadline would otherwise hold the whole corpus up to
// go test's default ten minutes.
const rowTimeout = "2m"

// mutant is one parsed row of mutants.txt.
type mutant struct {
	line           int
	file, old, new string
	pkg, run       string
}

func (m mutant) String() string {
	return fmt.Sprintf("mutants.txt:%d %s: %q → %q", m.line, m.file, m.old, m.new)
}

func readCorpus(t *testing.T) []mutant {
	t.Helper()
	f, err := os.Open("mutants.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []mutant
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 5 {
			t.Fatalf("mutants.txt:%d: %d tab-separated fields, want 5", n, len(fields))
		}
		m := mutant{line: n, file: fields[0], pkg: fields[3], run: fields[4]}
		if m.old, err = strconv.Unquote(fields[1]); err != nil {
			t.Fatalf("mutants.txt:%d: old text: %v", n, err)
		}
		if m.new, err = strconv.Unquote(fields[2]); err != nil {
			t.Fatalf("mutants.txt:%d: new text: %v", n, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("mutants.txt has no rows")
	}
	return out
}

func TestMutants(t *testing.T) {
	mod, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	var survivors []string
	for i, m := range readCorpus(t) {
		src, err := os.ReadFile(filepath.Join(mod, m.file))
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Errorf("%v: old text occurs %d times, want exactly 1", m, n)
			continue
		}
		dir := t.TempDir()
		mutated := filepath.Join(dir, fmt.Sprintf("mutant%d.go", i))
		if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, _ := json.Marshal(map[string]map[string]string{
			"Replace": {filepath.Join(mod, m.file): mutated},
		})
		ov := filepath.Join(dir, "overlay.json")
		if err := os.WriteFile(ov, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		pkgs := strings.Fields(m.pkg)
		if out, err := goCmd(mod, append([]string{"vet", "-overlay", ov}, pkgs...)...); err != nil {
			t.Errorf("%v: mutant does not compile:\n%s", m, out)
			continue
		}
		out, err := goCmd(mod, append([]string{"test", "-overlay", ov, "-count=1", "-timeout", rowTimeout, "-run", m.run}, pkgs...)...)
		if err == nil {
			survivors = append(survivors, fmt.Sprintf("%v survived -run %s in %s", m, m.run, m.pkg))
			continue
		}
		if strings.Contains(out, "panic: test timed out after") {
			// A hang still kills the mutant, but the row should die by a
			// named assertion: show the whole run so the stuck test is found.
			t.Logf("killed by timeout: %v\n%s", m, out)
			continue
		}
		t.Logf("killed: %v\n%s", m, failures(out))
	}
	for _, s := range survivors {
		t.Error(s)
	}
}

// goCmd runs the go tool in dir and returns its combined output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// failures returns the "--- FAIL" lines of a go test run: the tests
// that killed the mutant.
func failures(out string) string {
	var fails []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "--- FAIL") {
			fails = append(fails, l)
		}
	}
	if len(fails) == 0 {
		return out // a panic or a timeout: show it all
	}
	return strings.Join(fails, "\n")
}
