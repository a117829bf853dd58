package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
