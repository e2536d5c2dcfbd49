package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// graphPkgSuffix and bigraphPkgSuffix identify the network substrate
// packages; the analyzers match types by path suffix so fixtures and the
// real module resolve identically.
const (
	graphPkgSuffix   = "internal/graph"
	bigraphPkgSuffix = "internal/bigraph"
	nbhdPkgSuffix    = "internal/nbhd"
	prepPkgSuffix    = "internal/prep"
)

// fromPkg reports whether obj belongs to a package whose import path
// ends in suffix.
func fromPkg(obj types.Object, suffix string) bool {
	return obj != nil && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), suffix)
}

// isGraphVertex reports whether t is graph.Vertex.
func isGraphVertex(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Vertex" && fromPkg(n.Obj(), graphPkgSuffix)
}

// isRawNetwork reports whether t is a handle on the whole network that
// decision paths must reach only through the view APIs: *graph.Graph,
// *bigraph.CSR or the bigraph.Store interface.
func isRawNetwork(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		n, ok := p.Elem().(*types.Named)
		return ok && (n.Obj().Name() == "Graph" && fromPkg(n.Obj(), graphPkgSuffix) ||
			n.Obj().Name() == "CSR" && fromPkg(n.Obj(), bigraphPkgSuffix))
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Store" && fromPkg(n.Obj(), bigraphPkgSuffix)
}

// isViewType reports whether t (possibly behind a pointer) is one of
// the sanctioned local-view carriers: prep.View, prep.Preprocessor,
// their map-shaped reference twins prep.RefView and
// prep.RefPreprocessor, nbhd.Neighborhood or nbhd.Component. Graphs
// reached through their fields are, by construction, the k-local views
// the paper permits.
func isViewType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := n.Obj().Name()
	switch {
	case fromPkg(n.Obj(), prepPkgSuffix):
		return name == "View" || name == "Preprocessor" || name == "RefView" || name == "RefPreprocessor"
	case fromPkg(n.Obj(), nbhdPkgSuffix):
		return name == "Neighborhood" || name == "Component"
	}
	return false
}

// isDecisionSignature reports whether sig is a routing-function shape
// with a (graph.Vertex, error) result: the paper's f(s, t, v, G_k(u))
// as route.Func writes it — three graph.Vertex parameters, then the
// handed *prep.View and the walker's *prep.Scratch — or the
// four-vertex f(s, t, u, v) of an adapter that fetches u's view itself.
func isDecisionSignature(sig *types.Signature) bool {
	if sig == nil || sig.Results().Len() != 2 || sig.Variadic() {
		return false
	}
	ps := sig.Params()
	switch {
	case ps.Len() == 4 && isGraphVertex(ps.At(3).Type()):
	case ps.Len() == 5 && isPrepPointer(ps.At(3).Type(), "View") && isPrepPointer(ps.At(4).Type(), "Scratch"):
	default:
		return false
	}
	for i := 0; i < 3; i++ {
		if !isGraphVertex(ps.At(i).Type()) {
			return false
		}
	}
	if !isGraphVertex(sig.Results().At(0).Type()) {
		return false
	}
	named, ok := sig.Results().At(1).Type().(*types.Named)
	return ok && named.Obj() == types.Universe.Lookup("error")
}

// isPrepPointer reports whether t is *prep.<name>.
func isPrepPointer(t types.Type, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == name && fromPkg(n.Obj(), prepPkgSuffix)
}

// scope is one function body participating in a decision path: either a
// routing function itself (a seed) or a same-package function it
// transitively references.
type scope struct {
	node ast.Node       // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt // nil for bodyless declarations
}

// decisionSet is the per-package set of decision scopes, computed once
// and shared by the decision-path analyzers.
type decisionSet struct {
	computed bool
	scopes   []scope
	// funcs are the declared functions among the scopes: the decision
	// closure's members, each fully checked by the analyzers.
	funcs map[*types.Func]bool

	// hotComputed/hot cache the //klocal:hotpath opt-ins. Unlike the
	// decision closure, hotpath marks do not spread transitively: a
	// dispatcher may legitimately call into per-request allocation
	// (snapshot.Route builds a fresh Result by design), so every
	// function held to the zero-alloc contract opts in explicitly.
	hotComputed bool
	hot         []scope
}

// Decisions returns the decision scopes of the package: every function
// literal or declaration whose signature matches the routing-function
// shape, every function marked //klocal:decision, and — transitively —
// every same-package function one of those references (helpers like
// rule tables and tie-breaks are part of the decision path).
func (p *Pass) Decisions() []scope {
	if p.decisions.computed {
		return p.decisions.scopes
	}
	p.decisions.computed = true
	p.decisions.funcs = make(map[*types.Func]bool)

	// Declarations by object, for closure chasing.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	marked := p.markedLines(verbDecision)
	seen := make(map[ast.Node]bool)
	var work []scope
	add := func(node ast.Node, body *ast.BlockStmt) {
		if node == nil || seen[node] {
			return
		}
		seen[node] = true
		s := scope{node: node, body: body}
		p.decisions.scopes = append(p.decisions.scopes, s)
		work = append(work, s)
	}

	// Seeds: signature matches and //klocal:decision marks.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				sig, _ := p.TypeOf(fn.Name).(*types.Signature)
				if isDecisionSignature(sig) || marked[p.declMarkLine(fn)] {
					if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
						p.decisions.funcs[obj] = true
					}
					add(fn, fn.Body)
				}
			case *ast.FuncLit:
				sig, _ := p.TypeOf(fn).(*types.Signature)
				if isDecisionSignature(sig) || marked[p.lineKey(fn.Pos(), -1)] || marked[p.lineKey(fn.Pos(), 0)] {
					add(fn, fn.Body)
				}
			}
			return true
		})
	}

	// Closure: any same-package function referenced from a decision
	// scope joins it (called directly or passed as a value).
	for len(work) > 0 {
		s := work[0]
		work = work[1:]
		if s.body == nil {
			continue
		}
		ast.Inspect(s.body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() != p.Pkg {
				return true
			}
			if fd, ok := decls[fn]; ok {
				p.decisions.funcs[fn] = true
				add(fd, fd.Body)
			}
			return true
		})
	}
	return p.decisions.scopes
}

// decisionFunc reports whether fn is a member of the decision closure
// (and therefore itself subject to every decision-path analyzer).
func (p *Pass) decisionFunc(fn *types.Func) bool {
	p.Decisions()
	return p.decisions.funcs[fn]
}

// markedLines returns the file:line locations carrying a //klocal:
// directive of the given verb.
func (p *Pass) markedLines(verb string) map[string]bool {
	marked := make(map[string]bool)
	for _, f := range p.Files {
		for _, d := range directivesIn(p.Fset, f) {
			if d.Verb == verb {
				marked[p.lineKey(d.Pos, 0)] = true
			}
		}
	}
	return marked
}

// Hotpaths returns the //klocal:hotpath-marked scopes of the package:
// the functions and literals held to the zero-allocation contract.
// Marks are explicit per function — they do not close transitively.
func (p *Pass) Hotpaths() []scope {
	if p.decisions.hotComputed {
		return p.decisions.hot
	}
	p.decisions.hotComputed = true
	marked := p.markedLines(verbHotpath)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if marked[p.declMarkLine(fn)] {
					p.decisions.hot = append(p.decisions.hot, scope{node: fn, body: fn.Body})
				}
			case *ast.FuncLit:
				if marked[p.lineKey(fn.Pos(), -1)] || marked[p.lineKey(fn.Pos(), 0)] {
					p.decisions.hot = append(p.decisions.hot, scope{node: fn, body: fn.Body})
				}
			}
			return true
		})
	}
	return p.decisions.hot
}

// declMarkLine returns the location a //klocal:decision mark for fd
// would sit on: the last line of its doc comment, or the line above.
func (p *Pass) declMarkLine(fd *ast.FuncDecl) string {
	if fd.Doc != nil && len(fd.Doc.List) > 0 {
		return p.lineKey(fd.Doc.List[len(fd.Doc.List)-1].Pos(), 0)
	}
	return p.lineKey(fd.Pos(), -1)
}

// lineKey renders pos (shifted by delta lines) as a file:line key.
func (p *Pass) lineKey(pos token.Pos, delta int) string {
	pp := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", pp.Filename, pp.Line+delta)
}

// inspectScopes walks every decision scope body once with fn.
func (p *Pass) inspectScopes(fn func(s scope, n ast.Node) bool) {
	for _, s := range p.Decisions() {
		if s.body == nil {
			continue
		}
		ast.Inspect(s.body, func(n ast.Node) bool { return fn(s, n) })
	}
}
