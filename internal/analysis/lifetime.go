package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerLifetime guards the borrow window of the mmap-backed CSR
// store: bigraph row views (CSR.Row, the offsets/targets arrays, any
// unsafe.Slice view) alias pages that Close unmaps, so a slice that
// outlives the store is a use-after-munmap waiting for the next
// deployment swap to fault. Within each function it tracks values
// derived from such views (through assignment and re-slicing) and
// flags the escapes that extend their lifetime past the caller's
// frame: stores into struct fields or package variables, channel
// sends, captures by spawned goroutines, and returns.
//
// Copying the data out (append into a caller-owned buffer, element
// reads) is fine — only the aliasing slice itself is tracked.
var AnalyzerLifetime = &Analyzer{
	Name: "klifetime",
	Doc:  "slices aliasing mmap-backed CSR storage must not outlive the store",
	Run:  runLifetime,
}

func runLifetime(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLifetimeFunc(pass, fd)
			}
		}
	}
}

func checkLifetimeFunc(pass *Pass, fd *ast.FuncDecl) {
	derived := mmapDerivedVars(pass, fd.Body)
	isDerived := func(e ast.Expr) bool { return mmapDerived(pass, derived, e) }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if isDerived(r) {
					pass.Reportf(r.Pos(), "returns a slice aliasing the mmap-backed CSR store; it must not outlive Close — copy the data out instead")
				}
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i := range st.Lhs {
				if isDerived(st.Rhs[i]) {
					checkLifetimeStore(pass, fd, st.Lhs[i])
				}
			}
		case *ast.SendStmt:
			if isDerived(st.Value) {
				pass.Reportf(st.Value.Pos(), "sends a slice aliasing the mmap-backed CSR store on a channel; the receiver may outlive Close — copy the data out instead")
			}
		case *ast.GoStmt:
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				reportDerivedCaptures(pass, derived, lit)
			}
			for _, arg := range st.Call.Args {
				if isDerived(arg) {
					pass.Reportf(arg.Pos(), "hands a slice aliasing the mmap-backed CSR store to a goroutine; it may outlive Close — copy the data out instead")
				}
			}
		}
		return true
	})
}

// checkLifetimeStore reports lhs when it parks a view in storage that
// outlives the frame: a struct field, a package-level variable, or an
// element of either.
func checkLifetimeStore(pass *Pass, fd *ast.FuncDecl, lhs ast.Expr) {
	switch x := lhs.(type) {
	case *ast.ParenExpr:
		checkLifetimeStore(pass, fd, x.X)
	case *ast.SelectorExpr:
		if selection := pass.Info.Selections[x]; selection != nil && selection.Kind() == types.FieldVal {
			pass.Reportf(x.Pos(), "stores a slice aliasing the mmap-backed CSR store into field %s; it would outlive Close — copy the data out instead", x.Sel.Name)
		}
	case *ast.Ident:
		if v, ok := pass.Info.Uses[x].(*types.Var); ok && isPackageLevel(pass, v) {
			pass.Reportf(x.Pos(), "stores a slice aliasing the mmap-backed CSR store into package variable %s; it would outlive Close — copy the data out instead", v.Name())
		}
	case *ast.IndexExpr:
		checkLifetimeStore(pass, fd, x.X)
	case *ast.StarExpr:
		checkLifetimeStore(pass, fd, x.X)
	}
}

// reportDerivedCaptures flags uses of view-derived variables inside a
// goroutine body — the goroutine's lifetime is unbounded with respect
// to the store's.
func reportDerivedCaptures(pass *Pass, derived map[*types.Var]bool, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.Info.Uses[id].(*types.Var); ok && derived[v] {
			pass.Reportf(id.Pos(), "goroutine captures %s, a slice aliasing the mmap-backed CSR store; it may outlive Close — copy the data out instead", v.Name())
		}
		return true
	})
}

// mmapDerivedVars finds the function's local variables holding
// mmap-view slices, iterated to a fixed point so chains of assignments
// and re-slices stay tracked.
func mmapDerivedVars(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	derived := make(map[*types.Var]bool)
	for changed := true; changed; {
		changed = false
		record := func(lhs, rhs ast.Expr) {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return
			}
			v, ok := pass.Info.Defs[id].(*types.Var)
			if !ok {
				if v, ok = pass.Info.Uses[id].(*types.Var); !ok {
					return
				}
			}
			if !derived[v] && mmapDerived(pass, derived, rhs) {
				derived[v] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						record(st.Lhs[i], st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						record(ast.Expr(st.Names[i]), st.Values[i])
					}
				}
			}
			return true
		})
	}
	return derived
}

// mmapDerived reports whether e yields a slice aliasing mmap-backed CSR
// storage: a slice-typed call on a *bigraph.CSR (Row), a slice field of
// the CSR or its mapping, an unsafe.Slice view, a tracked local, or a
// re-slice of any of those.
func mmapDerived(pass *Pass, derived map[*types.Var]bool, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return mmapDerived(pass, derived, x.X)
	case *ast.Ident:
		v, ok := pass.Info.Uses[x].(*types.Var)
		return ok && derived[v]
	case *ast.SliceExpr:
		return mmapDerived(pass, derived, x.X)
	case *ast.SelectorExpr:
		if selection := pass.Info.Selections[x]; selection != nil && selection.Kind() == types.FieldVal {
			if isSliceType(pass.TypeOf(x)) && bigraphStoreType(pass.TypeOf(x.X)) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// unsafe.Slice builds an aliasing view over whatever pointer it
		// is handed — in this module that is the mapping.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			// unsafe.Slice resolves to a *types.Builtin, not a Func.
			if b, ok := pass.Info.Uses[sel.Sel].(*types.Builtin); ok && b.Name() == "Slice" {
				return true
			}
			if selection := pass.Info.Selections[sel]; selection != nil && selection.Kind() == types.MethodVal {
				if isSliceType(pass.TypeOf(x)) && bigraphStoreType(pass.TypeOf(sel.X)) {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
}

// bigraphStoreType reports whether t (behind a pointer) is the bigraph
// CSR or its mapping — the types whose slice views alias the mmap.
func bigraphStoreType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := n.Obj().Name()
	return (name == "CSR" || name == "mapping") && fromPkg(n.Obj(), bigraphPkgSuffix)
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
