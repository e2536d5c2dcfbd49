package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerLocality enforces k-locality (PAPER.md §2): a routing
// decision at u may consult only s, t, the incoming port and G_k(u).
// Concretely, inside a decision path every network handle —
// *graph.Graph, *bigraph.CSR or bigraph.Store — must be reached through
// the sanctioned view carriers (prep.View, prep.Preprocessor, their
// map-shaped reference twins prep.RefView and prep.RefPreprocessor,
// nbhd.Neighborhood, nbhd.Component) or be handed to the nbhd/prep
// preprocessing boundary that constructs such a view. Calling a method
// (g.Adj, st.HasEdge, c.Deg, ...) on the network itself, reaching it
// through a carrier accessor (p.Store()), or passing it to any other
// function or method is exactly the "reach past the k-neighbourhood"
// bug that would silently invalidate the theorems, and is flagged.
//
// The map-shaped views (nbhd.Neighborhood, prep.RefView) are k-local
// but serve only as test references that pin the compact pipeline: a
// decision path that builds one — nbhd.Extract, nbhd.ExtractView,
// nbhd.ClassifyView(Ref), prep.PreprocessRef, prep.NewRefPreprocessor —
// is flagged too, since it rebuilds G_k(u) in maps on every hop instead
// of reading the view cache (prep.Preprocessor.At).
var AnalyzerLocality = &Analyzer{
	Name: "klocality",
	Doc:  "decision paths may traverse the graph only through the nbhd/prep view APIs",
	Run:  runLocality,
}

func runLocality(pass *Pass) {
	for _, s := range pass.Decisions() {
		if s.body == nil {
			continue
		}
		checkLocalityScope(pass, s)
	}
}

func checkLocalityScope(pass *Pass, s scope) {
	derived := viewDerivedVars(pass, s)
	ast.Inspect(s.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Method call on a network receiver: the receiver must be
		// view-derived.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if selection := pass.Info.Selections[sel]; selection != nil && selection.Kind() == types.MethodVal {
				if t := pass.TypeOf(sel.X); isRawNetwork(t) && !viewDerived(pass, derived, sel.X) {
					pass.Reportf(sel.Pos(), "decision path calls %s on a raw %s; k-local code must go through the nbhd/prep view APIs (G_k(u) only)", sel.Sel.Name, typeName(t))
				}
			}
		}
		if name, ok := mapShaped(pass, call); ok {
			pass.Reportf(call.Pos(), "decision path builds a map-shaped view with %s; decide over the view cache (prep.Preprocessor.At), map-shaped views are test references", name)
		}
		// Network passed as an argument: only the preprocessing
		// boundary (nbhd/prep) may receive it; everything else could
		// smuggle global topology into the decision. A helper that is
		// itself in the decision closure may hold the graph — its body
		// is checked by every decision-path analyzer, so a violation
		// surfaces where the graph is actually consulted.
		if sanctionedBoundary(pass, call) || closureCallee(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if t := pass.TypeOf(arg); isRawNetwork(t) && !viewDerived(pass, derived, arg) {
				pass.Reportf(arg.Pos(), "decision path passes a raw %s to %s; only the nbhd/prep preprocessing APIs may receive the network", typeName(t), calleeName(call))
			}
		}
		return true
	})
}

// calledFunc returns the function or method call targets, or nil for a
// call through a function value.
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// sanctionedBoundary reports whether call targets the preprocessing
// boundary: a function or method of internal/nbhd or internal/prep
// (prep.PreprocessStore, Scratch.Extract, ...). These construct G_k(u)
// and are the only admissible consumers of the raw network inside a
// decision.
func sanctionedBoundary(pass *Pass, call *ast.CallExpr) bool {
	fn := calledFunc(pass, call)
	return fn != nil && (fromPkg(fn, nbhdPkgSuffix) || fromPkg(fn, prepPkgSuffix))
}

// closureCallee reports whether call targets a member of the decision
// closure.
func closureCallee(pass *Pass, call *ast.CallExpr) bool {
	fn := calledFunc(pass, call)
	return fn != nil && pass.decisionFunc(fn)
}

// mapShaped reports whether call constructs a map-shaped view, and
// names the constructor.
func mapShaped(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calledFunc(pass, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	switch {
	case fromPkg(fn, nbhdPkgSuffix):
		switch fn.Name() {
		case "Extract", "ExtractView", "ClassifyView", "ClassifyViewRef":
			return "nbhd." + fn.Name(), true
		}
	case fromPkg(fn, prepPkgSuffix):
		switch fn.Name() {
		case "PreprocessRef", "NewRefPreprocessor":
			return "prep." + fn.Name(), true
		}
	}
	return "", false
}

// typeName renders a network type for diagnostics (*graph.Graph,
// bigraph.Store, ...).
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// calleeName renders the called function for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "a function"
	}
}

// viewDerivedVars finds local variables of the scope that hold graphs
// obtained from a view (e.g. vg := view.Routing), iterating to a fixed
// point so chains of assignments stay sanctioned.
func viewDerivedVars(pass *Pass, s scope) map[*types.Var]bool {
	derived := make(map[*types.Var]bool)
	for changed := true; changed; {
		changed = false
		record := func(lhs ast.Expr, rhs ast.Expr) {
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
			if !derived[v] && isRawNetwork(v.Type()) && viewDerived(pass, derived, rhs) {
				derived[v] = true
				changed = true
			}
		}
		ast.Inspect(s.body, func(n ast.Node) bool {
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
						record(st.Names[i], st.Values[i])
					}
				}
			}
			return true
		})
	}
	return derived
}

// viewDerived reports whether e yields a value reached through a
// sanctioned view: a view-typed value itself, a selector chain rooted
// in one (view.Raw.G), a call on one (p.At(u)) unless the call hands
// back the whole network (p.Store()), or a local variable previously
// assigned such a value.
func viewDerived(pass *Pass, derived map[*types.Var]bool, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return viewDerived(pass, derived, x.X)
	case *ast.UnaryExpr:
		return viewDerived(pass, derived, x.X)
	case *ast.StarExpr:
		return viewDerived(pass, derived, x.X)
	case *ast.Ident:
		if isViewType(pass.TypeOf(x)) {
			return true
		}
		v, ok := pass.Info.Uses[x].(*types.Var)
		return ok && derived[v]
	case *ast.SelectorExpr:
		if isViewType(pass.TypeOf(x)) {
			return true
		}
		return viewDerived(pass, derived, x.X)
	case *ast.CallExpr:
		if isViewType(pass.TypeOf(x)) {
			return true
		}
		// A method call on a view (p.At, view.CompOf, nb.Components)
		// yields view-derived data whatever its result type — except a
		// carrier's accessor for its whole network (p.Store()).
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if selection := pass.Info.Selections[sel]; selection != nil && selection.Kind() == types.MethodVal {
				if isViewType(pass.TypeOf(sel.X)) && isRawNetwork(pass.TypeOf(x)) {
					return false
				}
				return viewDerived(pass, derived, sel.X)
			}
		}
		return false
	case *ast.IndexExpr:
		return viewDerived(pass, derived, x.X)
	default:
		return isViewType(pass.TypeOf(e))
	}
}
