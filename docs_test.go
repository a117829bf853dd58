package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdCitation matches a Markdown file named in prose: README.md,
// docs/measurements/pr24.md, benchmark/README.md.
var mdCitation = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestMarkdownCitationsResolve: every *.md path a Go comment cites
// exists, either beside the citing file or from the repository root. A
// comment that sends the reader to a document nobody wrote is worse
// than no pointer at all.
func TestMarkdownCitationsResolve(t *testing.T) {
	fset := token.NewFileSet()
	files, cites := 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files++
		for _, g := range f.Comments {
			for _, c := range g.List {
				for _, cite := range mdCitation.FindAllString(c.Text, -1) {
					cites++
					if !exists(filepath.Join(filepath.Dir(path), cite)) && !exists(cite) {
						t.Errorf("%s: comment cites %s, which exists neither beside it nor at the repository root",
							fset.Position(c.Pos()), cite)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 || cites == 0 {
		t.Fatalf("scanned %d Go files and %d citations — the walk missed the tree", files, cites)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestCommandFlagsDocumented: every flag a command declares as
// fs.<Type>("name", …) in cmd/*/main.go is named as -name somewhere in
// README.md, so a user reading the guide meets every flag the commands
// accept.
func TestCommandFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	flags := 0
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			flags++
			// -name standing alone: not the tail of a word, not the head
			// of a longer flag (-trace in -trace-cap does not count).
			named := regexp.MustCompile(`(^|[^A-Za-z0-9-])-` + regexp.QuoteMeta(name) + `($|[^A-Za-z0-9-])`)
			if !named.Match(readme) {
				t.Errorf("%s: %s flag -%s is not named in README.md", fset.Position(call.Pos()), cmd, name)
			}
			return true
		})
	}
	if len(mains) != 4 || flags < 30 {
		t.Fatalf("found %d flags in %d commands — the scan missed the flag declarations", flags, len(mains))
	}
}
