package lint

import (
	"go/ast"
	"go/types"
)

// SoALayoutPass checks //cfm:soa-annotated arena structs. The directive
// marks a struct-of-arrays arena: flat parallel slices that a compiled
// dense tick loop sweeps every hot slot (the memory bank arena is the
// canonical case). The perf claim such an arena records — the loop
// touches consecutive cache lines, never chases per-element heap
// pointers — is a layout property, and a single field edit (a slice of
// pointers, a map, a slice of a struct that grew a slice) silently
// reintroduces the pointer chase the refactor removed. The pass turns
// the layout assumption into a build-time failure:
//
//   - every slice or array field's element type must be pointer-free
//     (fixed-size value data: basics, and structs/arrays thereof);
//   - map fields are rejected outright — paged flat storage with a
//     presence bitmap is the arena-friendly replacement;
//   - a deliberately cold or indirect field opts out with a same-line
//     //cfm:soa-ok <reason>, which must state why the field is off the
//     hot sweep.
func SoALayoutPass() *Pass {
	const name = "soalayout"
	return &Pass{
		Name: name,
		Doc:  "//cfm:soa arena slices must hold pointer-free elements (no maps; //cfm:soa-ok <reason> exempts)",
		Run: func(t *Target, r *Reporter) {
			t.typeDecls(func(gd *ast.GenDecl, ts *ast.TypeSpec, _ *types.TypeName) {
				if typeAnnotated(gd, ts, "soa") {
					t.checkSoALayout(ts, r, name)
				}
			})
		},
	}
}

// checkSoALayout verifies one annotated arena type.
func (t *Target) checkSoALayout(ts *ast.TypeSpec, r *Reporter, pass string) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		r.Reportf(pass, ts.Pos(), "%s is annotated //cfm:soa but is not a struct", ts.Name.Name)
		return
	}
	for _, f := range st.Fields.List {
		if reason, ok := fieldAnnotation(f, "soa-ok"); ok {
			if reason == "" {
				r.Reportf(pass, f.Pos(), "%s: bare //cfm:soa-ok; state why the field is off the hot sweep (//cfm:soa-ok <reason>)", fieldLabel(ts, f))
			}
			continue
		}
		ft := t.Info.TypeOf(f.Type)
		if ft == nil {
			continue
		}
		qual := types.RelativeTo(t.Pkg)
		switch u := ft.Underlying().(type) {
		case *types.Map:
			r.Reportf(pass, f.Pos(), "%s is a map in a //cfm:soa arena: the tick loop would walk scattered heap nodes; use paged flat storage with a presence bitmap, or annotate //cfm:soa-ok <reason> if the field is cold", fieldLabel(ts, f))
		case *types.Slice:
			if !pointerFree(u.Elem(), nil) {
				r.Reportf(pass, f.Pos(), "%s has element type %s, which is not pointer-free: the dense tick loop would chase per-element heap pointers; flatten the element or annotate //cfm:soa-ok <reason>", fieldLabel(ts, f), types.TypeString(u.Elem(), qual))
			}
		case *types.Array:
			if !pointerFree(u.Elem(), nil) {
				r.Reportf(pass, f.Pos(), "%s has element type %s, which is not pointer-free: the dense tick loop would chase per-element heap pointers; flatten the element or annotate //cfm:soa-ok <reason>", fieldLabel(ts, f), types.TypeString(u.Elem(), qual))
			}
		}
	}
}

// fieldLabel names a field for diagnostics: Type.first (embedded fields
// use the type name itself).
func fieldLabel(ts *ast.TypeSpec, f *ast.Field) string {
	if len(f.Names) > 0 {
		return ts.Name.Name + "." + f.Names[0].Name
	}
	return ts.Name.Name + " embedded field"
}

// pointerFree reports whether a value of type t contains no pointers:
// non-string basics, and structs/arrays composed of such. Anything the
// garbage collector would scan — pointers, slices, maps, channels,
// functions, interfaces, strings — disqualifies, because one such field
// per element turns a dense sweep into a pointer chase. seen guards
// against cycles through named struct types.
func pointerFree(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true // the spine above is still being proven; don't recurse
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString == 0 && u.Kind() != types.UnsafePointer && u.Kind() != types.Invalid
	case *types.Struct:
		if seen == nil {
			seen = make(map[types.Type]bool)
		}
		seen[t] = true
		for i := 0; i < u.NumFields(); i++ {
			if !pointerFree(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return pointerFree(u.Elem(), seen)
	default:
		return false
	}
}
