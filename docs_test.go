package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// docName is a span that begins with pkg.Name or pkg.Type.Member,
	// optionally followed by a call, literal or index.
	docName   = regexp.MustCompile(`^([a-z]\w*)\.(\w+)(?:\.(\w+))?(?:$|[({\[])`)
	pointerTo = regexp.MustCompile(`\(\*(\w+)\)`)
	// fileExts are the second parts of spans that name a file (`repro.go`).
	fileExts = map[string]bool{"go": true, "md": true, "mod": true, "sh": true, "json": true, "txt": true}
)

// TestDocNamesResolve fails when a backticked dotted Go name in
// ARCHITECTURE.md or README.md — `pkg.Name` or `pkg.Type.Member`, with
// `(*T)` read as T — names nothing the module declares, so the documents
// cannot outlive a rename or a deletion. Spans whose first part is not a
// package of the module (`cfg.Seed`, `net.Conn`) and file names are skipped.
func TestDocNamesResolve(t *testing.T) {
	decls := moduleDecls(t)
	for _, doc := range []string{"ARCHITECTURE.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range backticked.FindAllStringSubmatch(string(text), -1) {
			m := docName.FindStringSubmatch(pointerTo.ReplaceAllString(span[1], "$1"))
			if m == nil || (m[3] == "" && fileExts[m[2]]) {
				continue
			}
			pkg, ok := decls[m[1]]
			if !ok {
				continue
			}
			if m[3] == "" && !pkg.names[m[2]] || m[3] != "" && !pkg.members[m[2]][m[3]] {
				t.Errorf("%s: `%s` names nothing declared in package %s", doc, span[1], m[1])
			}
		}
	}
}

// pkgDecls is what one package name declares across the module: every
// top-level name and method name, and per type its methods and fields.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// moduleDecls parses every Go file of the module (test files included; not
// testdata, nor the nested benchmark module) and indexes its declarations by
// package name.
func moduleDecls(t *testing.T) map[string]*pkgDecls {
	decls := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p := decls[f.Name.Name]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
			decls[f.Name.Name] = p
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				p.names[d.Name.Name] = true
				if d.Recv != nil {
					p.member(typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.names[n.Name] = true
						}
					case *ast.TypeSpec:
						p.names[s.Name.Name] = true
						var fields *ast.FieldList
						switch typ := s.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						default:
							continue
						}
						for _, fl := range fields.List {
							if len(fl.Names) == 0 {
								p.member(s.Name.Name, typeName(fl.Type))
							}
							for _, n := range fl.Names {
								p.member(s.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// typeName is the name of a receiver or embedded type: T, *T, T[P], pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
