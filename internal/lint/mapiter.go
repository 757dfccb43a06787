package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// mapiter flags `range` over a map whose loop body performs an
// order-sensitive sink — appending to a slice, sending on a channel, or
// calling an emission-style function (Write*/Encode*/Append*/Print*/Emit*/
// Marshal*/Observe*) — without an intervening deterministic sort.
//
// This is the gen.PrefAttach bug class: Go randomizes map iteration order
// per process, so any output assembled directly from a map range differs
// across runs and across OS processes, silently breaking the repo's core
// contract that equal seeds yield byte-identical partitions everywhere.
// The accepted shape is collect-then-sort: appending the map's keys (or
// values) to a slice is fine when a sort call on that slice follows in the
// same function before the loop's enclosing block ends.
type mapiter struct{}

func newMapiter() *mapiter { return &mapiter{} }

func (*mapiter) Name() string { return "mapiter" }
func (*mapiter) Doc() string {
	return "order-sensitive work inside map iteration without a deterministic sort"
}
func (*mapiter) Finish(func(Finding)) {}

// emissionCall reports whether a called function name is an output/emission
// sink whose invocation order is observable (codec appends, writers, trace
// emission, metric observation).
func emissionCall(name string) bool {
	for _, prefix := range []string{
		"Write", "Encode", "Append", "Emit", "Print", "Fprint", "Sprint",
		"Marshal", "OnTrace", "Observe", "Send",
	} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// sortingCall reports whether a call expression is a deterministic-order
// fix: any call whose function name mentions sorting (sort.Ints,
// slices.SortFunc, a local sortEdgesDesc helper, ...) with target among its
// arguments, or target.Sort()-style methods.
func sortingCall(call *ast.CallExpr, target types.Object, info *types.Info) bool {
	var name string
	var args []ast.Expr = call.Args
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		// Include the qualifier so sort.Ints / slices.SortFunc match, and
		// the receiver as a candidate target so s.Sort() counts for s.
		name = fun.Sel.Name
		if base, ok := fun.X.(*ast.Ident); ok {
			name = base.Name + "." + name
		}
		args = append([]ast.Expr{fun.X}, call.Args...)
	default:
		return false
	}
	if !strings.Contains(strings.ToLower(name), "sort") {
		return false
	}
	for _, a := range args {
		if id, ok := rootIdent(a); ok && info.Uses[id] == target {
			return true
		}
	}
	return false
}

// rootIdent unwraps an expression to its base identifier: x, x[i:j], x.f →
// x (for x.f it returns x, which is what append/sort matching wants when
// the target is a plain variable).
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v, true
		case *ast.SliceExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil, false
		}
	}
}

func (m *mapiter) Package(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range body.List {
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := p.Pkg.Info.TypeOf(rng.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				m.checkLoop(p, rng, body.List[i+1:])
			}
			return true
		})
	}
}

// checkLoop inspects one map-range loop; rest is the statement tail of the
// loop's enclosing block, searched for post-loop sorts of append targets.
func (m *mapiter) checkLoop(p *Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	info := p.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is checked by its own visit; its sinks would
			// otherwise be double-reported here.
			if v != rng {
				if t := info.TypeOf(v.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
		case *ast.SendStmt:
			p.Report(v, "send on a channel inside map iteration: receive order is randomized per process")
			return true
		case *ast.CallExpr:
			if obj := calleeBuiltin(info, v); obj == "append" {
				m.checkAppend(p, v, rest)
				return true
			}
			if name, ok := calleeName(v); ok && emissionCall(name) {
				p.Report(v, "%s called inside map iteration: emission order is randomized per process", name)
				return false
			}
		}
		return true
	})
}

// checkAppend handles `s = append(s, ...)` inside a map range: fine when a
// sort of s follows the loop in the same block, a finding otherwise.
func (m *mapiter) checkAppend(p *Pass, call *ast.CallExpr, rest []ast.Stmt) {
	info := p.Pkg.Info
	var target types.Object
	if id, ok := rootIdent(call.Args[0]); ok {
		target = info.Uses[id]
	}
	if target != nil {
		sorted := false
		for _, stmt := range rest {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && sortingCall(c, target, info) {
					sorted = true
				}
				return !sorted
			})
			if sorted {
				break
			}
		}
		if sorted {
			return
		}
	}
	p.Report(call, "append inside map iteration without a following sort: element order is randomized per process")
}

// calleeBuiltin returns the name of the builtin a call invokes, or "".
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// calleeName returns the bare name of the function or method a call
// invokes (skipping type conversions).
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}
