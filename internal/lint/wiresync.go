package lint

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// wiresync keeps the wire protocol's encode and decode paths in sync:
//
//  1. Every frame-kind constant (Kind* in a package named "wire") must be
//     written somewhere (passed to a Write*/write* call — the encode path)
//     and handled somewhere on read (a switch case or ==/!= comparison —
//     the decode path). A kind with only one side is a frame the peers
//     cannot agree on.
//  2. A frame-dispatch switch (a switch whose cases name two or more frame
//     kinds) must carry a default clause: an unknown kind from a
//     version-skewed or corrupt peer must be rejected explicitly, never
//     fall through silently.
//  3. A struct field marked //kappa:since <v> is version-gated: Append<T>
//     must encode it after every ungated field (gated fields extend the
//     payload tail, so old decoders still parse the prefix) and Decode<T>
//     must contain a remaining-length guard (a len(...) comparison), so a
//     shorter old-version payload decodes cleanly instead of erroring —
//     the PR 7 DecodeAssign bug class, where a v1 Assign made a v2
//     coordinator fail mid-handshake instead of reporting the version
//     mismatch.
//
// The audit is whole-program: uses are collected from every analyzed
// package (the dispatch switches live in internal/remote, not in wire), so
// run kappavet over ./... — a single-package invocation cannot see the
// remote side and reports kinds as unhandled.
type wiresync struct {
	kinds map[types.Object]*kindUse
}

type kindUse struct {
	name             string
	pos              token.Position
	encoded, decoded bool
}

func newWiresync() *wiresync { return &wiresync{kinds: make(map[types.Object]*kindUse)} }

func (*wiresync) Name() string { return "wiresync" }
func (*wiresync) Doc() string {
	return "wire frame kinds out of sync between encode and decode paths, or unguarded version-gated fields"
}

func (w *wiresync) Package(p *Pass) {
	if p.Pkg.Types.Name() == "wire" {
		w.collectKinds(p)
		w.checkVersionGates(p)
	}
	w.collectUses(p)
	w.checkDispatchSwitches(p)
}

// collectKinds records every Kind* constant declared by a wire package.
func (w *wiresync) collectKinds(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Kind") || len(name.Name) == len("Kind") {
						continue
					}
					if obj := p.Pkg.Info.Defs[name]; obj != nil {
						w.kinds[obj] = &kindUse{name: name.Name, pos: p.position(name.Pos())}
					}
				}
			}
		}
	}
}

// collectUses walks one package recording encode-side and decode-side
// evidence for every known frame kind.
func (w *wiresync) collectUses(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		walkWithStack(f, func(n ast.Node, stack []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			ku, ok := w.kinds[info.Uses[id]]
			if !ok {
				return
			}
			for i := len(stack) - 1; i >= 0; i-- {
				switch parent := stack[i].(type) {
				case *ast.CallExpr:
					if name, ok := calleeName(parent); ok &&
						strings.Contains(strings.ToLower(name), "write") {
						for _, arg := range parent.Args {
							if containsNode(arg, id) {
								ku.encoded = true
							}
						}
					}
				case *ast.CaseClause:
					ku.decoded = true
				case *ast.BinaryExpr:
					if parent.Op == token.EQL || parent.Op == token.NEQ {
						ku.decoded = true
					}
				}
			}
		})
	}
}

// checkDispatchSwitches flags frame-dispatch switches without a default.
func (w *wiresync) checkDispatchSwitches(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			kindCases, hasDefault := 0, false
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if id, ok := unwrapSelector(e); ok {
						if _, isKind := w.kinds[info.Uses[id]]; isKind {
							kindCases++
						}
					}
				}
			}
			if kindCases >= 2 && !hasDefault {
				p.Report(sw, "frame-dispatch switch without a default clause: unknown frame kinds from a version-skewed peer must be rejected explicitly")
			}
			return true
		})
	}
}

// checkVersionGates validates //kappa:since fields of wire structs.
func (w *wiresync) checkVersionGates(p *Pass) {
	type gated struct {
		typeName string
		pos      token.Pos
		ungated  []string
		fields   []string
	}
	var structs []gated
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				g := gated{typeName: ts.Name.Name, pos: ts.Pos()}
				for _, field := range st.Fields.List {
					_, marked := p.Dirs.markedWith(p.suite.fset, field.Doc, verbSince)
					if !marked {
						_, marked = p.Dirs.markedWith(p.suite.fset, field.Comment, verbSince)
					}
					for _, name := range field.Names {
						if marked {
							g.fields = append(g.fields, name.Name)
						} else {
							g.ungated = append(g.ungated, name.Name)
						}
					}
				}
				if len(g.fields) > 0 {
					structs = append(structs, g)
				}
			}
		}
	}
	for _, g := range structs {
		w.checkAppendOrder(p, g.typeName, g.ungated, g.fields)
		w.checkDecodeGuard(p, g.typeName)
	}
}

// checkAppendOrder verifies Append<T> encodes every version-gated field
// after every ungated one.
func (w *wiresync) checkAppendOrder(p *Pass, typeName string, ungated, gatedFields []string) {
	fd := findFunc(p.Pkg, "Append"+typeName)
	if fd == nil {
		return
	}
	fieldPos := func(names []string) (first, last token.Pos) {
		first, last = token.NoPos, token.NoPos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, name := range names {
				if sel.Sel.Name == name {
					if !first.IsValid() || sel.Pos() < first {
						first = sel.Pos()
					}
					if sel.Pos() > last {
						last = sel.Pos()
					}
				}
			}
			return true
		})
		return first, last
	}
	_, lastUngated := fieldPos(ungated)
	firstGated, _ := fieldPos(gatedFields)
	if firstGated.IsValid() && lastUngated.IsValid() && firstGated < lastUngated {
		p.Report(fd, "Append%s encodes a version-gated (kappa:since) field before an ungated one: gated fields must extend the payload tail", typeName)
	}
}

// checkDecodeGuard verifies Decode<T> contains a remaining-length guard.
func (w *wiresync) checkDecodeGuard(p *Pass, typeName string) {
	fd := findFunc(p.Pkg, "Decode"+typeName)
	if fd == nil {
		return
	}
	guarded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return !guarded
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if call, ok := side.(*ast.CallExpr); ok && calleeBuiltin(p.Pkg.Info, call) == "len" {
				guarded = true
			}
		}
		return !guarded
	})
	if !guarded {
		p.Report(fd, "Decode%s reads version-gated (kappa:since) fields without a remaining-length guard: a shorter old-version payload must decode cleanly so the caller can report the version mismatch", typeName)
	}
}

func (w *wiresync) Finish(report func(Finding)) {
	kinds := make([]*kindUse, 0, len(w.kinds))
	for _, ku := range w.kinds {
		kinds = append(kinds, ku)
	}
	slices.SortFunc(kinds, func(a, b *kindUse) int { return cmp.Compare(a.name, b.name) })
	for _, ku := range kinds {
		if !ku.encoded {
			report(Finding{Analyzer: "wiresync", Pos: ku.pos,
				Message: "frame kind " + ku.name + " is never written on any encode path"})
		}
		if !ku.decoded {
			report(Finding{Analyzer: "wiresync", Pos: ku.pos,
				Message: "frame kind " + ku.name + " is never handled on any decode path (switch case or comparison)"})
		}
	}
}

// findFunc returns the package-level function named name, or nil.
func findFunc(p *Package, name string) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

// unwrapSelector returns the rightmost identifier of e (x → x, p.X → X).
func unwrapSelector(e ast.Expr) (*ast.Ident, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		return v, true
	case *ast.SelectorExpr:
		return v.Sel, true
	}
	return nil, false
}

// containsNode reports whether target occurs within root.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// walkWithStack visits every node with its ancestor stack (outermost
// first, not including the node itself).
func walkWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}
