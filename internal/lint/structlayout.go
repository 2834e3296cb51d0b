package lint

import (
	"go/ast"
	"go/types"
)

// cacheLineBytes is the coherence granule the //cfm:cacheline directive
// pins layouts to. 64 bytes is the line size of every target the
// simulator's performance claims are recorded on (and of the `gc`
// compiler's amd64 model the pass sizes against).
const cacheLineBytes = 64

// structLayoutSizes sizes types exactly as the gc compiler lays them out
// on the reference 64-bit target. Sizing against one fixed model keeps
// the pass deterministic across build hosts: a layout that only pads out
// on some platforms is precisely the bug the directive exists to catch.
var structLayoutSizes = types.SizesFor("gc", "amd64")

// StructLayoutPass checks //cfm:cacheline-annotated types. The directive
// marks structs whose instances sit side by side in a slice with each
// element owned by a different worker — core.Partial's per-shard stage
// is the canonical case. Such a struct must occupy a nonzero whole
// number of 64-byte cache lines, or adjacent workers' elements share a
// line and every local write becomes remote coherence traffic (false
// sharing), reintroduced silently by a field edit. The pass turns that
// layout assumption into a build-time failure.
func StructLayoutPass() *Pass {
	const name = "structlayout"
	return &Pass{
		Name: name,
		Doc:  "//cfm:cacheline structs must fill a whole number of 64-byte cache lines",
		Run: func(t *Target, r *Reporter) {
			for _, file := range t.Files {
				for _, decl := range file.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if !typeAnnotated(gd, ts, "cacheline") {
							continue
						}
						t.checkCacheLine(ts, r, name)
					}
				}
			}
		},
	}
}

// checkCacheLine verifies one annotated type: it must be a struct, and
// its gc/amd64 size must be a nonzero multiple of the cache line.
func (t *Target) checkCacheLine(ts *ast.TypeSpec, r *Reporter, pass string) {
	obj := t.Info.Defs[ts.Name]
	if obj == nil {
		return
	}
	if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
		r.Reportf(pass, ts.Pos(), "%s is annotated //cfm:cacheline but is not a struct", ts.Name.Name)
		return
	}
	size := structLayoutSizes.Sizeof(obj.Type())
	switch {
	case size == 0:
		r.Reportf(pass, ts.Pos(), "%s is annotated //cfm:cacheline but is empty: pad it to %d bytes or drop the directive", ts.Name.Name, cacheLineBytes)
	case size%cacheLineBytes != 0:
		r.Reportf(pass, ts.Pos(), "%s is annotated //cfm:cacheline but is %d bytes, not a multiple of %d: adjacent elements would share a cache line (false sharing between workers' elements); adjust the trailing padding", ts.Name.Name, size, cacheLineBytes)
	}
}
