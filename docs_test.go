package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// mdCitation matches a Markdown file named in prose: README.md,
// docs/measurements/pr24.md, benchmark/README.md.
var mdCitation = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// funcCitation matches a test, benchmark or fuzz function named in
// prose: TestV2Density, BenchmarkCalendarBucketWidth, or a prefix that
// stands for several: TestCalendar…, TestCalendar..., TestRED* or the
// pattern of "-run TestGolden".
var funcCitation = regexp.MustCompile(`(-run )?\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(…|\.\.\.|\*)?`)

// TestMarkdownCitationsResolve: every *.md path a Go comment cites
// exists, either beside the citing file or from the repository root,
// and every Test…, Benchmark… or Fuzz… name a Go comment or README.md
// cites is a function in the tree (a name ending in an ellipsis or *,
// or following -run, is a prefix of one). A comment that sends the
// reader to a document or a test nobody wrote is worse than no pointer
// at all.
func TestMarkdownCitationsResolve(t *testing.T) {
	fset := token.NewFileSet()
	files, cites := 0, 0
	var funcs []string
	type funcCite struct{ where, name, mark string } // mark: "-run " or the ellipsis or *
	var funcCites []funcCite
	citeFuncs := func(where, text string) {
		for _, m := range funcCitation.FindAllStringSubmatch(text, -1) {
			funcCites = append(funcCites, funcCite{where, m[2], m[1] + m[3]})
		}
	}
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
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				citeFuncs(fset.Position(c.Pos()).String(), c.Text)
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
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(readme), "\n") {
		citeFuncs("README.md:"+strconv.Itoa(i+1), line)
	}
	if files < 100 || cites == 0 || len(funcCites) < 100 {
		t.Fatalf("scanned %d Go files, %d document and %d function citations — the walk missed the tree",
			files, cites, len(funcCites))
	}
	for _, c := range funcCites {
		if !slices.ContainsFunc(funcs, func(f string) bool {
			return f == c.name || c.mark != "" && strings.HasPrefix(f, c.name)
		}) {
			t.Errorf("%s: cites %s, which names no function in the tree", c.where, c.name)
		}
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
