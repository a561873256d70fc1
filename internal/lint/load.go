package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages rooted at a Go module directory,
// resolving module-internal imports to their source directories and
// everything else through the stdlib source importer. It deliberately
// avoids go/packages (an external module) to keep the tool dependency-free.
type Loader struct {
	// ModuleDir is the absolute path of the module root (the directory
	// holding go.mod).
	ModuleDir string
	// ModulePath is the module's import path prefix from go.mod.
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	// deps caches dependency loads (no test files) by import path.
	deps map[string]*Package
}

// NewLoader locates the enclosing module starting at dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		deps:       map[string]*Package{},
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadAll loads every package under the module root (the "./..." walk),
// skipping testdata, vendor, and hidden directories. Test files are
// included: internal tests join their package, external _test packages
// are returned as packages of their own.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if len(matches) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		ps, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}

// LoadDir loads the package(s) in one directory: the primary package
// (with its internal test files) and, when present, the external _test
// package.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	groups, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	var names []string
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	var pkgs []*Package
	for _, name := range names {
		p, err := l.check(l.pathForDir(dir, name), groups[name])
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// pathForDir synthesizes the import path for a package group in dir.
func (l *Loader) pathForDir(dir, pkgName string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		rel = ""
	}
	path := l.ModulePath
	if rel != "" {
		path += "/" + filepath.ToSlash(rel)
	}
	if strings.HasSuffix(pkgName, "_test") {
		path += ".test"
	}
	return path
}

// parseDir parses dir's files into package-name groups. Internal test
// files (package foo in foo_test.go) join the primary group; external
// test files (package foo_test) form their own. When includeTests is
// false, _test.go files are skipped entirely (dependency loads).
func (l *Loader) parseDir(dir string, includeTests bool) (map[string][]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	groups := map[string][]*ast.File{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		// Skip files the go tool would not build here (//go:build lines,
		// _GOOS/_GOARCH suffixes), so tag-selected variants of one
		// declaration never meet in one type-check.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		name := file.Name.Name
		groups[name] = append(groups[name], file)
	}
	return groups, nil
}

// Import implements types.Importer: module-internal paths are resolved to
// their directory and loaded (without test files); anything else goes to
// the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		if p, ok := l.deps[path]; ok {
			return p.Types, nil
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		groups, err := l.parseDir(dir, false)
		if err != nil {
			return nil, err
		}
		if len(groups) != 1 {
			return nil, fmt.Errorf("lint: %s: expected one package, found %d", dir, len(groups))
		}
		for _, files := range groups {
			p, err := l.check(path, files)
			if err != nil {
				return nil, err
			}
			l.deps[path] = p
			return p.Types, nil
		}
	}
	return l.std.Import(path)
}

// check type-checks one group of files as a package.
func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
