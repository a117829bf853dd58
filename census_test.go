package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusModule is the module path go.mod declares.
const censusModule = "repro"

// censusAllow is the written record of what the census lets stay.
const censusAllow = "testdata/census.allow"

// TestReachabilityCensus: every exported package-level name and every
// exported method under internal/ is referenced by product code — any
// non-_test.go file of the module: cmd/, internal/, benchmark/ or the
// root. A method that implements a method of an interface the code
// satisfies counts as reached, since interface calls name the interface
// method, not the concrete one. Names used only inside their own
// package count as reached too: over-exported is not dead.
//
// What is reached only from tests is either deleted or listed, with a
// reason, in testdata/census.allow. An allowlist entry that is no longer
// flagged fails as well, so the list cannot outlive what it excuses.
//
// The check is go/parser plus go/types with the source importer for the
// standard library: it needs no network, no go list and no build cache.
func TestReachabilityCensus(t *testing.T) {
	c := newCensus(t)
	flagged := c.flag()
	allow := readCensusAllow(t)

	var unexcused []string
	for _, key := range sortedKeys(flagged) {
		if _, ok := allow[key]; ok {
			continue
		}
		obj := flagged[key]
		users := c.testUsers(obj.Pos())
		where := "no test either"
		if len(users) > 0 {
			where = "only tests: " + strings.Join(users, ", ")
		}
		unexcused = append(unexcused, fmt.Sprintf("%s (%s) is reached by no product file; used by %s",
			key, c.fset.Position(obj.Pos()), where))
	}
	for _, msg := range unexcused {
		t.Error(msg)
	}
	if len(unexcused) > 0 {
		t.Errorf("delete what nothing reaches, or list it with a reason in %s", censusAllow)
	}
	for _, key := range sortedKeys(allow) {
		if _, ok := flagged[key]; !ok {
			t.Errorf("%s:%d: %s is no longer flagged (deleted or now reached); drop the entry",
				censusAllow, allow[key], key)
		}
	}
}

// census holds the module's parsed files and its type-checked product
// packages, keyed by import path.
type census struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer
	// dirs maps an import path to its directory's parsed files.
	dirs map[string]*censusDir
	// pkgs memoises product type checks; it doubles as the importer's
	// store for repro/... imports.
	pkgs map[string]*types.Package
	// reached holds the declaration position of every object some
	// product file refers to.
	reached map[token.Pos]bool
	// testRefs maps a declaration position to the test packages that
	// refer to it; nil until a failure asks.
	testRefs map[token.Pos][]string
}

type censusDir struct {
	product []*ast.File
	// inTest are _test.go files of the package itself; extTest those of
	// its external _test package.
	inTest, extTest []*ast.File
}

func newCensus(t *testing.T) *census {
	c := &census{
		t:       t,
		fset:    token.NewFileSet(),
		dirs:    map[string]*censusDir{},
		pkgs:    map[string]*types.Package{},
		reached: map[token.Pos]bool{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(c.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(censusModule, filepath.ToSlash(filepath.Dir(p)))
		dir := c.dirs[ip]
		if dir == nil {
			dir = &censusDir{}
			c.dirs[ip] = dir
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			dir.product = append(dir.product, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			dir.extTest = append(dir.extTest, f)
		default:
			dir.inTest = append(dir.inTest, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.dirs) < 20 {
		t.Fatalf("found %d packages — the walk missed the tree", len(c.dirs))
	}
	for _, ip := range sortedKeys(c.dirs) {
		if len(c.dirs[ip].product) > 0 {
			if _, err := c.Import(ip); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// Import serves repro/... from the census's own product checks, in
// dependency order by recursion, and everything else from the source
// importer.
func (c *census) Import(ip string) (*types.Package, error) {
	if ip != censusModule && !strings.HasPrefix(ip, censusModule+"/") {
		return c.std.Import(ip)
	}
	if pkg, ok := c.pkgs[ip]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return pkg, nil
	}
	dir := c.dirs[ip]
	if dir == nil || len(dir.product) == 0 {
		return nil, fmt.Errorf("no product files for %s", ip)
	}
	c.pkgs[ip] = nil
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: c}).Check(ip, c.fset, dir.product, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", ip, err)
	}
	for _, obj := range info.Uses {
		c.reached[obj.Pos()] = true
	}
	c.pkgs[ip] = pkg
	return pkg, nil
}

// flag returns every exported package-level name and exported method
// under internal/ that no product file reaches, keyed as in the
// allowlist: pkg.Name or pkg.Type.Method.
func (c *census) flag() map[string]types.Object {
	ifaces := c.interfaces()
	flagged := map[string]types.Object{}
	for ip, pkg := range c.pkgs {
		if !strings.HasPrefix(ip, censusModule+"/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !c.reached[obj.Pos()] {
				flagged[pkg.Name()+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !c.reached[m.Pos()] && !implementsAny(named, m.Name(), ifaces) {
					flagged[pkg.Name()+"."+name+"."+m.Name()] = m
				}
			}
		}
	}
	return flagged
}

// interfaces lists every interface declared in the module's product
// code plus the standard-library ones its types satisfy.
func (c *census) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	for _, ip := range sortedKeys(c.pkgs) {
		scope := c.pkgs[ip].Scope()
		for _, name := range scope.Names() {
			add(scope.Lookup(name))
		}
	}
	add(types.Universe.Lookup("error"))
	for _, ref := range []string{"fmt.Stringer", "io.Writer", "io.WriterTo", "sort.Interface", "flag.Value"} {
		pkgPath, name, _ := strings.Cut(ref, ".")
		pkg, err := c.std.Import(pkgPath)
		if err != nil {
			c.t.Fatal(err)
		}
		add(pkg.Scope().Lookup(name))
	}
	return out
}

// implementsAny reports whether T or *T implements an interface that
// has a method called name.
func implementsAny(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// testUsers names the test packages that refer to the object declared
// at pos. Only a failure needs it, so the test files are type-checked
// on first call and a passing census never pays for them.
func (c *census) testUsers(pos token.Pos) []string {
	if c.testRefs == nil {
		c.testRefs = map[token.Pos][]string{}
		for _, ip := range sortedKeys(c.dirs) {
			dir := c.dirs[ip]
			if len(dir.inTest) > 0 {
				c.checkTests(ip, append(append([]*ast.File{}, dir.product...), dir.inTest...))
			}
			if len(dir.extTest) > 0 {
				c.checkTests(ip+"_test", dir.extTest)
			}
		}
	}
	return c.testRefs[pos]
}

// checkTests type-checks files as package ip and files ip under every
// object a _test.go file among them refers to. Type errors are
// ignored: an external test may use a helper only its package's tests
// export.
func (c *census) checkTests(ip string, files []*ast.File) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c, Error: func(error) {}}
	conf.Check(ip, c.fset, files, info)
	seen := map[token.Pos]bool{}
	for id, obj := range info.Uses {
		pos := obj.Pos()
		if !seen[pos] && strings.HasSuffix(c.fset.Position(id.Pos()).Filename, "_test.go") {
			seen[pos] = true
			c.testRefs[pos] = append(c.testRefs[pos], ip)
		}
	}
}

// readCensusAllow parses the allowlist: one "pkg.Name[.Method]  reason"
// per line, # comments and blank lines ignored. It maps each key to its
// line number.
func readCensusAllow(t *testing.T) map[string]int {
	f, err := os.Open(censusAllow)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s carries no reason", censusAllow, n, key)
		}
		if _, dup := allow[key]; dup {
			t.Errorf("%s:%d: %s is listed twice", censusAllow, n, key)
		}
		allow[key] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
