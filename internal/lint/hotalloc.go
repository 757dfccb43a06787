package lint

import (
	"go/ast"
	"go/types"
)

// hotalloc enforces the zero-allocation property of the multilevel hot path
// structurally: inside any function whose doc comment carries
// //kappa:hotpath, every construct that can allocate — make, new, growing
// append, slice/map/pointer composite literals, fmt.Sprintf-style
// formatting, string↔[]byte conversions, and the reflection-based sorts of
// package sort (sort.Slice and sort.SliceStable build a reflect swapper and
// box the slice, sort.Sort boxes its receiver into an interface; use a radix
// kernel or the typed slices.SortFunc) — is a finding.
//
// PR 4 removed allocation from the V-cycle kernels and proved it with
// -benchmem snapshots; a snapshot only catches a regression after someone
// re-measures. The annotation makes the property part of the code: a future
// edit that reintroduces a per-level allocation fails `make lint`
// immediately. Arena borrows (mem.Arena method calls) are intentionally
// invisible to this analyzer — drawing from the arena is exactly what hot
// code is supposed to do. The one accepted append form is the explicit
// reuse idiom append(buf[:0], ...), which recycles a caller-provided
// backing array.
type hotalloc struct{}

func newHotalloc() *hotalloc { return &hotalloc{} }

func (*hotalloc) Name() string { return "hotalloc" }
func (*hotalloc) Doc() string {
	return "allocation inside a //kappa:hotpath function"
}
func (*hotalloc) Finish(func(Finding)) {}

func (h *hotalloc) Package(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := p.Dirs.markedWith(p.suite.fset, fd.Doc, verbHotpath); !ok {
				continue
			}
			h.checkBody(p, fd)
		}
	}
}

func (h *hotalloc) checkBody(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(v)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map, *types.Chan:
				p.Report(v, "composite literal allocates in hot path")
			}
			// Value struct literals stay legal: they live on the stack unless
			// escape analysis says otherwise, and flagging them would outlaw
			// plain value assembly. Heap-escaping &T{} is caught below.
		case *ast.UnaryExpr:
			if v.Op.String() == "&" {
				if _, ok := v.X.(*ast.CompositeLit); ok {
					p.Report(v, "&composite{} allocates in hot path")
				}
			}
		case *ast.CallExpr:
			h.checkCall(p, v)
		}
		return true
	})
}

func (h *hotalloc) checkCall(p *Pass, call *ast.CallExpr) {
	info := p.Pkg.Info
	switch calleeBuiltin(info, call) {
	case "make":
		p.Report(call, "make allocates in hot path")
		return
	case "new":
		p.Report(call, "new allocates in hot path")
		return
	case "append":
		if len(call.Args) > 0 && isResetReuse(call.Args[0]) {
			return
		}
		p.Report(call, "append may grow its backing array in hot path (use the append(buf[:0], ...) reuse idiom or an arena buffer)")
		return
	}
	// fmt.Sprintf / fmt.Errorf / errors.New style formatting, and the
	// reflection-based sorts.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if base, ok := sel.X.(*ast.Ident); ok {
			if pkgName, ok := info.Uses[base].(*types.PkgName); ok {
				path := pkgName.Imported().Path()
				if path == "fmt" || path == "errors" {
					p.Report(call, "%s.%s allocates in hot path", path, sel.Sel.Name)
					return
				}
				if path == "sort" && (sel.Sel.Name == "Slice" || sel.Sel.Name == "SliceStable" || sel.Sel.Name == "Sort") {
					p.Report(call, "sort.%s allocates in hot path (reflect swapper / interface boxing); use a radix kernel or slices.SortFunc", sel.Sel.Name)
					return
				}
			}
		}
	}
	// string ↔ []byte conversions copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if from != nil && isStringByteConv(to, from) {
			p.Report(call, "string/[]byte conversion copies in hot path")
		}
	}
}

// isResetReuse recognizes the append reuse idiom's first argument:
// buf[:0] (or buf[0:0]).
func isResetReuse(e ast.Expr) bool {
	s, ok := e.(*ast.SliceExpr)
	if !ok {
		return false
	}
	high, ok := s.High.(*ast.BasicLit)
	return ok && high.Value == "0"
}

// isStringByteConv reports whether a conversion goes string→[]byte or
// []byte→string.
func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return (isStr(to) && isBytes(from)) || (isBytes(to) && isStr(from))
}
