// Package lint implements kappavet, the repository's project-invariant
// static-analysis suite. The partitioner's engineering claims rest on
// properties the Go compiler cannot see: byte-identical partitions across
// worker counts, transports, and OS processes (determinism), an
// allocation-free multilevel hot path, panic-free library error contracts,
// and versioned wire codecs whose encode and decode paths stay in sync.
// Each analyzer in this package encodes one of those invariants as a
// machine-checked rule, so the bug classes that have already been fixed by
// hand once (the gen.PrefAttach map-iteration nondeterminism, the
// wire.DecodeAssign version skew) are caught on every PR instead of being
// rediscovered by chaos tests.
//
// The suite is deliberately stdlib-only (go/parser, go/types, go/ast;
// packages enumerated via `go list`), keeping go.mod dependency-free.
//
// # Directives
//
// A finding is suppressed with an in-source directive naming the analyzer
// and a reason:
//
//	//kappa:allow <analyzer> <reason...>
//
// placed on the flagged line or on the line directly above it. Directives
// are themselves checked: an unknown analyzer name, a missing reason, or a
// directive that suppresses nothing is reported as a finding of the
// built-in "directive" analyzer (which cannot be suppressed).
//
// Two more directives mark code for analyzers: `//kappa:hotpath` in a
// function's doc comment opts the function into the hotalloc analyzer, and
// `//kappa:invariant` marks an internal-invariant helper whose panics the
// panicfree analyzer accepts. `//kappa:since <version>` on a struct field
// in the wire package marks a version-gated wire field for wiresync.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strconv"
	"strings"
)

// A Finding is one analyzer diagnostic, keyed by position.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// An Analyzer checks one project invariant. Package is called once per
// loaded package; Finish (optional) runs after every package has been seen,
// for whole-program checks such as wiresync's cross-package frame audit.
type Analyzer interface {
	Name() string
	Doc() string
	Package(p *Pass)
	Finish(report func(Finding))
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Pkg   *Package
	Dirs  *Directives
	suite *Suite
	name  string
}

// Report records a finding at n's position unless a matching
// //kappa:allow directive suppresses it.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	p.suite.report(Finding{
		Analyzer: p.name,
		Pos:      p.suite.fset.Position(n.Pos()),
		Message:  fmt.Sprintf(format, args...),
	})
}

// position resolves a node position (for analyzers that need to inspect
// lines themselves).
func (p *Pass) position(pos token.Pos) token.Position {
	return p.suite.fset.Position(pos)
}

// Directive verbs.
const (
	verbAllow     = "allow"
	verbHotpath   = "hotpath"
	verbInvariant = "invariant"
	verbSince     = "since"
)

// A Directive is one parsed //kappa:<verb> comment.
type Directive struct {
	Pos  token.Position
	Verb string
	Args []string // allow: [analyzer, reason...]; since: [version]
	used bool
}

// Directives indexes a package's kappa directives.
type Directives struct {
	all []*Directive
	// allows maps file → line → allow directives guarding that line. A
	// directive guards its own line (trailing comment) and the line below
	// (comment-above form).
	allows map[string]map[int][]*Directive
	// marks maps a directive position (file:line) to hotpath/invariant/since
	// directives so analyzers can associate them with declarations.
	marks map[string][]*Directive
}

const directivePrefix = "//kappa:"

// parseDirectives extracts every kappa directive from the package's files.
func parseDirectives(p *Package, fset *token.FileSet) *Directives {
	d := &Directives{
		allows: make(map[string]map[int][]*Directive),
		marks:  make(map[string][]*Directive),
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, directivePrefix))
				dir := &Directive{Pos: fset.Position(c.Pos())}
				if len(fields) > 0 {
					dir.Verb = fields[0]
					dir.Args = fields[1:]
				}
				d.all = append(d.all, dir)
				switch dir.Verb {
				case verbAllow:
					file := d.allows[dir.Pos.Filename]
					if file == nil {
						file = make(map[int][]*Directive)
						d.allows[dir.Pos.Filename] = file
					}
					file[dir.Pos.Line] = append(file[dir.Pos.Line], dir)
					file[dir.Pos.Line+1] = append(file[dir.Pos.Line+1], dir)
				case verbHotpath, verbInvariant, verbSince:
					key := dir.Pos.Filename + ":" + strconv.Itoa(dir.Pos.Line)
					d.marks[key] = append(d.marks[key], dir)
				}
			}
		}
	}
	return d
}

// markedWith reports whether a comment group (e.g. a function's doc comment
// or a struct field's comment) carries the given directive verb, and marks
// it used.
func (d *Directives) markedWith(fset *token.FileSet, cg *ast.CommentGroup, verb string) (*Directive, bool) {
	if cg == nil {
		return nil, false
	}
	for _, c := range cg.List {
		pos := fset.Position(c.Pos())
		key := pos.Filename + ":" + strconv.Itoa(pos.Line)
		for _, dir := range d.marks[key] {
			if dir.Verb == verb {
				dir.used = true
				return dir, true
			}
		}
	}
	return nil, false
}

// Suite runs every analyzer over a set of loaded packages and collects the
// surviving findings.
type Suite struct {
	fset      *token.FileSet
	analyzers []Analyzer
	findings  []Finding
	dirs      []*Directives
}

// Analyzers returns a fresh instance of every kappavet analyzer (fresh so
// that cross-package state, e.g. wiresync's, is per-run).
func Analyzers() []Analyzer {
	return []Analyzer{
		newMapiter(),
		newNondet(),
		newHotalloc(),
		newPanicfree(),
		newWiresync(),
	}
}

// NewSuite builds a suite over the default analyzer set.
func NewSuite(fset *token.FileSet) *Suite {
	return &Suite{fset: fset, analyzers: Analyzers()}
}

// Run analyzes every package and returns the findings that survive
// suppression, sorted by position. Directive problems (unknown analyzer in
// an allow, missing reason, an allow that suppressed nothing, an unknown
// verb, an unused hotpath/invariant/since mark) are appended as findings of
// the "directive" pseudo-analyzer.
func (s *Suite) Run(pkgs []*Package) []Finding {
	known := make(map[string]bool, len(s.analyzers))
	for _, a := range s.analyzers {
		known[a.Name()] = true
	}
	for _, pkg := range pkgs {
		dirs := parseDirectives(pkg, s.fset)
		s.dirs = append(s.dirs, dirs)
		for _, a := range s.analyzers {
			a.Package(&Pass{Pkg: pkg, Dirs: dirs, suite: s, name: a.Name()})
		}
	}
	for _, a := range s.analyzers {
		a.Finish(s.report)
	}
	s.checkDirectives(known)
	slices.SortFunc(s.findings, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Analyzer, b.Analyzer),
		)
	})
	return s.findings
}

// report records a finding unless an allow directive covers it. Suppression
// is resolved at report time against the reporting package's directives,
// which the suite tracks via s.dirs (the current package's Directives are
// the ones most recently appended when per-package analyzers report;
// Finish-time reports search every package's directives, since wiresync
// anchors findings to declarations in other packages).
func (s *Suite) report(f Finding) {
	for _, dirs := range s.dirs {
		for _, dir := range dirs.allows[f.Pos.Filename][f.Pos.Line] {
			if len(dir.Args) > 0 && dir.Args[0] == f.Analyzer {
				dir.used = true
				return
			}
		}
	}
	s.findings = append(s.findings, f)
}

// checkDirectives validates every directive after the analyzers ran: the
// suppression machinery must itself be auditable, so a misspelled analyzer
// name or a reason-free allow is a finding, not a silent no-op.
func (s *Suite) checkDirectives(known map[string]bool) {
	bad := func(d *Directive, format string, args ...any) {
		s.findings = append(s.findings, Finding{
			Analyzer: "directive",
			Pos:      d.Pos,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, dirs := range s.dirs {
		for _, d := range dirs.all {
			switch d.Verb {
			case verbAllow:
				switch {
				case len(d.Args) == 0:
					bad(d, "kappa:allow needs an analyzer name and a reason")
				case !known[d.Args[0]]:
					bad(d, "kappa:allow names unknown analyzer %q", d.Args[0])
				case len(d.Args) < 2:
					bad(d, "kappa:allow %s needs a reason", d.Args[0])
				case !d.used:
					bad(d, "kappa:allow %s suppresses nothing on this or the next line", d.Args[0])
				}
			case verbHotpath, verbInvariant:
				if !d.used {
					bad(d, "kappa:%s is not attached to the doc comment of a function (or, for invariant, a sentinel panic type)", d.Verb)
				}
			case verbSince:
				if len(d.Args) != 1 {
					bad(d, "kappa:since needs exactly one version argument")
				} else if _, err := strconv.Atoi(d.Args[0]); err != nil {
					bad(d, "kappa:since version %q is not an integer", d.Args[0])
				} else if !d.used {
					bad(d, "kappa:since is not attached to a wire struct field")
				}
			default:
				bad(d, "unknown directive kappa:%s", d.Verb)
			}
		}
	}
}
