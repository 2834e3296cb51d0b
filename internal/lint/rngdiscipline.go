package lint

import (
	"go/ast"
	"go/types"
)

// RNGDisciplinePass enforces the event-horizon RNG contract documented
// in internal/sim: a component that draws at event time keeps identical
// streams across skip-ahead jumps and may report real horizons, while a
// component that draws every live slot must pin its horizon to now (a
// skipped slot would skip its draws and shift the stream).
//
// Mechanically: every struct type holding a sim.RNG stream (a *sim.RNG
// field, directly or through slices/arrays/maps/embedded structs) must
// carry a //cfm:rng=event or //cfm:rng=slot directive in its doc
// comment, and a slot-annotated type's Horizon/EarliestNext methods may
// only ever return `now` or sim.HorizonNone — never a computed future
// slot, which would claim quiescence across live draws.
func RNGDisciplinePass() *Pass {
	const name = "rng-discipline"
	return &Pass{
		Name: name,
		Doc:  "RNG-holding types must declare //cfm:rng=event|slot; slot types must pin Horizon to now",
		Run: func(t *Target, r *Reporter) {
			if t.Pkg.Path() == simPkgPath {
				return // the definer of RNG itself
			}
			t.typeDecls(func(gd *ast.GenDecl, ts *ast.TypeSpec, obj *types.TypeName) {
				t.checkRNGType(name, gd, ts, obj, r)
			})
		},
	}
}

// checkRNGType applies the discipline to one type declaration.
func (t *Target) checkRNGType(pass string, gd *ast.GenDecl, ts *ast.TypeSpec, obj *types.TypeName, r *Reporter) {
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok || !structHoldsRNG(st, 0) {
		return
	}
	val, ok := typeAnnotation(gd, ts, "rng")
	if !ok {
		r.Reportf(pass, ts.Pos(), "type %s holds a *sim.RNG stream but declares no draw discipline: add //cfm:rng=event (draws at event time, real horizons OK) or //cfm:rng=slot (draws per live slot, Horizon must pin now) to its doc comment", ts.Name.Name)
		return
	}
	switch val {
	case "event":
		// Real horizons are fine; nothing further to prove statically.
	case "slot":
		for _, mname := range []string{"Horizon", "EarliestNext"} {
			if fd := t.methodDecl(obj, mname); fd != nil {
				t.checkPinnedHorizon(pass, ts.Name.Name, fd, r)
			}
		}
	default:
		r.Reportf(pass, ts.Pos(), "type %s: //cfm:rng=%s is not a draw discipline; use event or slot", ts.Name.Name, val)
	}
}

// structHoldsRNG reports whether st holds a sim.RNG stream. Function
// and interface types do not count (a selector callback taking *sim.RNG
// does not own a stream), and named field types other than RNG are the
// responsibility of their own declaration.
func structHoldsRNG(st *types.Struct, depth int) bool {
	if depth > 8 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if typeHoldsRNG(st.Field(i).Type(), depth) {
			return true
		}
	}
	return false
}

func typeHoldsRNG(typ types.Type, depth int) bool {
	switch ty := typ.(type) {
	case *types.Named:
		obj := ty.Obj()
		if obj.Name() == "RNG" && obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath {
			return true
		}
		return false
	case *types.Alias:
		return typeHoldsRNG(types.Unalias(ty), depth)
	case *types.Pointer:
		return typeHoldsRNG(ty.Elem(), depth)
	case *types.Slice:
		return typeHoldsRNG(ty.Elem(), depth)
	case *types.Array:
		return typeHoldsRNG(ty.Elem(), depth)
	case *types.Map:
		return typeHoldsRNG(ty.Key(), depth) || typeHoldsRNG(ty.Elem(), depth)
	case *types.Struct:
		return structHoldsRNG(ty, depth+1)
	}
	return false
}

// methodDecl finds the *ast.FuncDecl of obj's method name in this
// package (value or pointer receiver), or nil.
func (t *Target) methodDecl(obj *types.TypeName, name string) *ast.FuncDecl {
	for _, file := range t.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != name || len(fd.Recv.List) != 1 {
				continue
			}
			rt := t.Info.Types[fd.Recv.List[0].Type].Type
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok && named.Obj() == obj {
				return fd
			}
		}
	}
	return nil
}

// checkPinnedHorizon verifies that every return in a slot-discipline
// horizon method yields the `now` parameter or HorizonNone. Returns
// inside nested function literals are ignored (they are not the
// method's returns).
func (t *Target) checkPinnedHorizon(pass, typeName string, fd *ast.FuncDecl, r *Reporter) {
	if fd.Body == nil || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 ||
		len(fd.Type.Params.List[0].Names) == 0 {
		return
	}
	nowName := fd.Type.Params.List[0].Names[0].Name
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(n.Results) != 1 || !pinnedResult(n.Results[0], nowName) {
				r.Reportf(pass, n.Pos(), "%s is //cfm:rng=slot (draws per live slot) but %s returns a computed horizon: skipping a slot would skip its draws and shift the stream; return %s (or sim.HorizonNone when provably drawing nothing)", typeName, fd.Name.Name, nowName)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// pinnedResult reports whether expr is the now parameter or a
// HorizonNone reference.
func pinnedResult(expr ast.Expr, nowName string) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name == nowName || e.Name == "HorizonNone"
	case *ast.SelectorExpr:
		return e.Sel.Name == "HorizonNone"
	}
	return false
}
