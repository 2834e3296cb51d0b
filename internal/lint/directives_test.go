package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseDirectiveFile parses one source string into a minimal Target so
// the position-indexed directive helpers can be exercised without a
// full type-checked load.
func parseDirectiveFile(t *testing.T, src string) (*Target, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Target{Fset: fset, Files: []*ast.File{f}}, f
}

const directiveSrc = `// Package p is a directive-parsing fixture.
//cfm:concurrency-ok hosts the engine goroutines
package p

// Arena is the hot arena.
//cfm:soa
type Arena struct {
	//cfm:no-save fold scratch
	hot []int
	cold int //cfm:rebuilt
	warm int
}

//cfm:shard-ok single-writer by construction
func waived() {
	x := 1 //cfm:alloc-ok amortized by the pool
	_ = x
}

func plain() {}
`

func TestFileAnnotated(t *testing.T) {
	tt, f := parseDirectiveFile(t, directiveSrc)
	if !tt.fileAnnotated(f, "concurrency-ok") {
		t.Error("fileAnnotated missed the header directive")
	}
	if tt.fileAnnotated(f, "wallclock-ok") {
		t.Error("fileAnnotated invented a directive")
	}
	if tt.fileAnnotated(f, "shard-ok") {
		t.Error("fileAnnotated read a func doc comment past the first declaration as file scope")
	}
}

func TestTypeAndFieldAnnotations(t *testing.T) {
	tt, f := parseDirectiveFile(t, directiveSrc)
	_ = tt
	var gd *ast.GenDecl
	var ts *ast.TypeSpec
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, s := range g.Specs {
			if sp, ok := s.(*ast.TypeSpec); ok && sp.Name.Name == "Arena" {
				gd, ts = g, sp
			}
		}
	}
	if ts == nil {
		t.Fatal("Arena not found")
	}
	if !typeAnnotated(gd, ts, "soa") {
		t.Error("typeAnnotated missed the standalone-GenDecl doc form")
	}
	if typeAnnotated(gd, ts, "no-stater") {
		t.Error("typeAnnotated invented a directive")
	}
	if v, ok := typeAnnotation(gd, ts, "soa"); !ok || v != "" {
		t.Errorf("typeAnnotation(soa) = %q, %v; want \"\", true", v, ok)
	}

	st := ts.Type.(*ast.StructType)
	if v, ok := fieldAnnotation(st.Fields.List[0], "no-save"); !ok || v != "fold scratch" {
		t.Errorf("doc-comment fieldAnnotation = %q, %v; want \"fold scratch\", true", v, ok)
	}
	if v, ok := fieldAnnotation(st.Fields.List[1], "rebuilt"); !ok || v != "" {
		t.Errorf("trailing-comment fieldAnnotation = %q, %v; want \"\", true", v, ok)
	}
	if _, ok := fieldAnnotation(st.Fields.List[2], "no-save"); ok {
		t.Error("fieldAnnotation leaked a neighbor's directive onto an unannotated field")
	}
}

func TestFuncAndLineAnnotations(t *testing.T) {
	tt, f := parseDirectiveFile(t, directiveSrc)
	var waivedFD, plainFD *ast.FuncDecl
	var assignPos token.Pos
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		switch fd.Name.Name {
		case "waived":
			waivedFD = fd
			assignPos = fd.Body.List[0].Pos()
		case "plain":
			plainFD = fd
		}
	}
	if v, ok := funcAnnotation(waivedFD, "shard-ok"); !ok || v != "single-writer by construction" {
		t.Errorf("funcAnnotation = %q, %v; want the reason, true", v, ok)
	}
	if _, ok := funcAnnotation(plainFD, "shard-ok"); ok {
		t.Error("funcAnnotation invented a waiver on an undocumented func")
	}

	if v, ok := tt.lineAnnotation(f, assignPos, "alloc-ok"); !ok || v != "amortized by the pool" {
		t.Errorf("lineAnnotation = %q, %v; want the reason, true", v, ok)
	}
	if !tt.lineAnnotated(f, assignPos, "alloc-ok") {
		t.Error("lineAnnotated disagrees with lineAnnotation")
	}
	if tt.lineAnnotated(f, assignPos, "unsorted-ok") {
		t.Error("lineAnnotated matched the wrong key")
	}
	if tt.lineAnnotated(f, waivedFD.Pos(), "alloc-ok") {
		t.Error("lineAnnotated matched a directive from a different line")
	}

	// The per-file index is built once and cached: a write through the
	// first returned map must be visible through the second.
	idx1 := tt.lineComments(f)
	if tt.lineDirs[f] == nil {
		t.Fatal("lineComments did not cache the index")
	}
	idx1[-1] = []string{"sentinel"}
	if got := tt.lineComments(f)[-1]; len(got) != 1 || got[0] != "sentinel" {
		t.Error("second lineComments call rebuilt the index instead of reusing the cache")
	}
}

// directiveSpellings pins the three directive spellings (bare,
// key=value, key reason) and the near misses that must not parse.
var directiveSpellings = []struct {
	text, key, value string
	ok               bool
}{
	{"//cfm:rng=event", "rng", "event", true},
	{"// cfm:rng=slot trailing prose", "rng", "slot", true},
	{"//cfm:alloc-ok cold path", "alloc-ok", "cold path", true},
	{"//cfm:no-save drained each phase", "no-save", "drained each phase", true},
	{"//cfm:shard-ok\treason after a tab", "shard-ok", "reason after a tab", true},
	{"//cfm:unsorted-ok", "unsorted-ok", "", true},
	{"//cfm:rebuilt", "rebuilt", "", true},
	{"//cfm:rng-discipline", "rng", "", false},
	{"//cfm:no-saver reason", "no-save", "", false},
	{"// unrelated", "rng", "", false},
	{"// want no directive here", "no-save", "", false},
}

// TestCommentAnnotationSpellings parses each spelling as one comment line.
func TestCommentAnnotationSpellings(t *testing.T) {
	for _, c := range directiveSpellings {
		v, ok := commentAnnotation(c.text, c.key)
		if ok != c.ok || v != c.value {
			t.Errorf("commentAnnotation(%q, %q) = %q, %v; want %q, %v", c.text, c.key, v, ok, c.value, c.ok)
		}
	}
}

// TestAnnotationParsing finds each spelling inside a comment group, below
// a prose line, and finds nothing in a missing group.
func TestAnnotationParsing(t *testing.T) {
	for _, c := range directiveSpellings {
		cg := &ast.CommentGroup{List: []*ast.Comment{{Text: "// Prose first."}, {Text: c.text}}}
		v, ok := annotation(cg, c.key)
		if ok != c.ok || v != c.value {
			t.Errorf("annotation(%q, %q) = %q, %v; want %q, %v", c.text, c.key, v, ok, c.value, c.ok)
		}
	}
	if v, ok := annotation(nil, "rng"); ok || v != "" {
		t.Errorf("annotation(nil, %q) = %q, %v; want \"\", false", "rng", v, ok)
	}
}
