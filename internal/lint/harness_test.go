package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// wantRE matches the expectation comments the fixture packages carry:
//
//	code() // want "regexp" "another regexp"
//
// Each quoted string is a regexp that must match one diagnostic reported
// on that line. The harness is a miniature of x/tools' analysistest —
// built here because the suite is deliberately stdlib-only.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one `// want` entry: a line plus an unconsumed regexp.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// TestFixtures runs every pass against its fixture packages under
// testdata/src/<pass>/<pkg> and cross-checks the reported diagnostics
// against the `// want` comments: every want must be matched by a
// diagnostic on its line, and every diagnostic must be claimed by a
// want. Packages named neg* therefore assert silence — they contain
// tempting-but-legal code and no want comments.
func TestFixtures(t *testing.T) {
	base := filepath.Join("testdata", "src")
	passDirs, err := os.ReadDir(base)
	if err != nil {
		t.Fatalf("reading fixture root: %v", err)
	}
	for _, pd := range passDirs {
		if !pd.IsDir() {
			continue
		}
		passName := pd.Name()
		pkgDirs, err := os.ReadDir(filepath.Join(base, passName))
		if err != nil {
			t.Fatal(err)
		}
		for _, kd := range pkgDirs {
			if !kd.IsDir() {
				continue
			}
			dir := filepath.Join(base, passName, kd.Name())
			t.Run(passName+"/"+kd.Name(), func(t *testing.T) {
				runFixture(t, passName, dir)
			})
		}
	}
}

// fixtureLoader memoizes one loader for the whole fixture suite: the
// stdlib and the cfm packages the fixtures import are type-checked once.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// runFixture checks one fixture package with a fresh pass instance (the
// stateful metric-names pass must not leak registrations across fixture
// packages the way it deliberately does across repo packages).
func runFixture(t *testing.T, passName, dir string) {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	target, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var pass *Pass
	for _, p := range Passes() {
		if p.Name == passName {
			pass = p
			break
		}
	}
	if pass == nil {
		t.Fatalf("fixture directory names unknown pass %q", passName)
	}

	wants := collectWants(t, target)
	r := NewReporter(loader.Fset)
	pass.Run(target, r)

	for _, d := range r.Diagnostics() {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants parses the `// want` comments out of the fixture's files.
func collectWants(t *testing.T, target *Target) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range target.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := target.Fset.Position(c.Pos())
				patterns, err := splitQuoted(m[1])
				if err != nil {
					t.Fatalf("%s:%d: malformed want comment: %v", pos.Filename, pos.Line, err)
				}
				for _, pat := range patterns {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings.
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		end := 1
		for end < len(s) && s[end] != '"' {
			if s[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(s) {
			return nil, fmt.Errorf("unterminated quote in %q", s)
		}
		q, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, err
		}
		out = append(out, q)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}

// claim consumes the first unused want on file:line whose regexp matches
// msg.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.used || w.line != line || !sameFile(w.file, file) {
			continue
		}
		if w.re.MatchString(msg) {
			w.used = true
			return true
		}
	}
	return false
}

// sameFile compares paths that may differ in absoluteness.
func sameFile(a, b string) bool {
	if a == b {
		return true
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

// TestPassesAreFresh guards the contract Passes documents: stateful
// passes must not share state between suite instances, or a second run
// in one process would report phantom duplicates.
func TestPassesAreFresh(t *testing.T) {
	a, b := Passes(), Passes()
	if len(a) != len(b) {
		t.Fatalf("suite sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("pass %s is shared between instances", a[i].Name)
		}
	}
}
