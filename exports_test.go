package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods that only tests
// call, each with a one-word reason; its header explains the format.
const testOnlyExports = "testdata/test_only_exports.txt"

var testOnlyReasons = map[string]bool{"referee": true, "fixture": true, "hook": true, "item-10": true}

// TestExportsHaveCallers type-checks every package of both modules (this one
// and perfbench, which imports it) from their non-test files. It fails on
// any exported function or method that no non-test code calls, unless
// testdata/test_only_exports.txt lists it, and on a listed name that has
// gained a non-test caller or no longer exists, so the list stays exact. A
// call from inside the function's own body does not count, and a method
// counts as called when non-test code calls an interface method of the
// same name.
func TestExportsHaveCallers(t *testing.T) {
	listed, err := readTestOnlyExports(testOnlyExports)
	if err != nil {
		t.Fatal(err)
	}
	u, err := loadUniverse(".")
	if err != nil {
		t.Fatal(err)
	}
	uncalled := u.uncalledExports()
	var missing, stale []string
	for name, isUncalled := range uncalled {
		if isUncalled && !listed[name] {
			missing = append(missing, name)
		}
	}
	for name := range listed {
		isUncalled, declared := uncalled[name]
		switch {
		case !declared:
			stale = append(stale, name+" (no longer exists)")
		case !isUncalled:
			stale = append(stale, name+" (has a non-test caller)")
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("%d exported functions have no caller outside _test.go files; "+
			"delete them, or list them in %s with a reason:\n\t%s",
			len(missing), testOnlyExports, strings.Join(missing, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%s lists names it should not; remove them:\n\t%s",
			testOnlyExports, strings.Join(stale, "\n\t"))
	}
}

// readTestOnlyExports parses the allow-list into its set of names: blank
// lines and lines starting with '#' are skipped, and every other line is a
// name and a reason.
func readTestOnlyExports(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !testOnlyReasons[fields[1]] {
			return nil, fmt.Errorf("%s:%d: want \"name reason\" with reason referee, fixture, hook or item-10, got %q", path, line, text)
		}
		if out[fields[0]] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, fields[0])
		}
		out[fields[0]] = true
	}
	return out, sc.Err()
}

// universe is every package of the modules under one root, type-checked
// from its non-test files with one shared types.Info, so that an object
// has the same identity wherever it is used. Standard-library imports go
// to the source importer.
type universe struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

// loadUniverse finds every package under root, naming each directory after
// the module line of its go.mod or after its parent directory, and
// type-checks them all.
func loadUniverse(root string) (*universe, error) {
	fset := token.NewFileSet()
	u := &universe{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info:  &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
	}
	importPaths := make(map[string]string) // directory -> import path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if gomod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			importPaths[dir] = modulePath(gomod)
		} else if parent, ok := importPaths[filepath.Dir(dir)]; ok {
			importPaths[dir] = parent + "/" + name
		} else {
			return fmt.Errorf("%s: no go.mod above it", dir)
		}
		return u.parseDir(importPaths[dir], dir)
	})
	if err != nil {
		return nil, err
	}
	for path := range u.files {
		if _, err := u.Import(path); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// parseDir parses the non-test Go files of one directory that the build
// constraints select.
func (u *universe) parseDir(importPath, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(u.fset, filepath.Join(abs, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		u.files[importPath] = append(u.files[importPath], f)
	}
	return nil
}

func (u *universe) Import(path string) (*types.Package, error) { return u.ImportFrom(path, "", 0) }

// ImportFrom type-checks a package of the modules on first use and hands
// every other import to the standard-library source importer.
func (u *universe) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := u.pkgs[path]; ok {
		return pkg, nil
	}
	files, ours := u.files[path]
	if !ours {
		return u.std.ImportFrom(path, dir, mode)
	}
	conf := types.Config{Importer: u}
	pkg, err := conf.Check(path, u.fset, files, u.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	u.pkgs[path] = pkg
	return pkg, nil
}

// decl is one exported function or method declared by the modules.
type decl struct {
	name     string // import path "." [receiver type "."] function name
	obj      *types.Func
	pos, end token.Pos
}

// decls returns every exported function and method the modules declare.
func (u *universe) decls() []decl {
	var out []decl
	for path, files := range u.files {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				obj := u.info.Defs[fd.Name].(*types.Func)
				name := path + "." + obj.Name()
				if recv := obj.Signature().Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					name = path + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
				}
				out = append(out, decl{name: name, obj: obj, pos: fd.Pos(), end: fd.End()})
			}
		}
	}
	return out
}

// uncalledExports returns every declared name, each mapped to whether no
// non-test code calls it.
func (u *universe) uncalledExports() map[string]bool {
	decls := u.decls()
	byObj := make(map[*types.Func]decl, len(decls))
	for _, d := range decls {
		byObj[d.obj] = d
	}
	called := make(map[*types.Func]bool)
	ifaceMethods := make(map[string]bool)
	for id, obj := range u.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods[fn.Name()] = true
			continue
		}
		if d, ok := byObj[fn]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue // a call from the function's own body
		}
		called[fn] = true
	}
	out := make(map[string]bool, len(decls))
	for _, d := range decls {
		out[d.name] = !called[d.obj] && !(d.obj.Signature().Recv() != nil && ifaceMethods[d.obj.Name()])
	}
	return out
}
