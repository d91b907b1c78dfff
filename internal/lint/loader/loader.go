// Package loader turns Go package patterns into parsed, typechecked
// packages without importing golang.org/x/tools. It shells out to
// `go list -export -deps -json` — the same mechanism the go command uses
// to drive vet — and feeds the resulting export data to the standard
// library's gc importer, so full types.Info is available even though the
// proxy-less build environment cannot fetch x/tools/go/packages.
//
// LoadWithTests lists with -test, so every package's test variant (the
// package recompiled with its in-package _test.go files) and external
// _test package are parsed and typechecked too; the generated *.test
// main packages are skipped. External test packages resolve their
// import of the package under test to that package's test-variant export
// data, exactly as the go command links them.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and typechecked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	ForTest    string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` for args with the given
// working directory and decodes the package stream. With tests, -test is
// added so test variants, external test packages, and their deps (e.g.
// the testing package) are listed and built too.
func goList(dir string, args []string, tests bool) ([]listPkg, error) {
	cmdArgs := []string{"list", "-e", "-export", "-deps"}
	if tests {
		cmdArgs = append(cmdArgs, "-test")
	}
	cmdArgs = append(cmdArgs,
		"-json=Dir,ImportPath,Name,Export,GoFiles,DepOnly,ForTest,Error")
	cmdArgs = append(cmdArgs, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint/loader: go list: %w\n%s", err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint/loader: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a types.Importer that resolves every import path
// through the export-data files go list reported. overrides maps an
// import path to a different export file (used to point an external test
// package's import of the package under test at the test variant's
// export data).
func exportImporter(fset *token.FileSet, exports, overrides map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if f, ok := overrides[path]; ok {
			return os.Open(f)
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint/loader: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// isInternalTestVariant reports whether p is an internal test variant:
// ImportPath "p [p.test]" with ForTest "p" and the package name of p
// itself (external test packages carry a _test name).
func (p *listPkg) isInternalTestVariant() bool {
	return p.ForTest != "" && strings.HasPrefix(p.ImportPath, p.ForTest+" [") &&
		!strings.HasSuffix(p.Name, "_test")
}

func (p *listPkg) isExternalTestPkg() bool {
	return p.ForTest != "" && strings.HasSuffix(p.Name, "_test")
}

// LoadWithTests lists patterns (e.g. "./...") relative to dir, then
// parses and typechecks every matched package from source. Dependencies
// are imported via export data, so one call on "./..." costs one build of
// the module. For every matched package with in-package test files, the
// test variant (all sources + _test.go) replaces the plain package in the
// result, and external _test packages are appended as packages of their
// own. The generated *.test test-binary mains are skipped — their only
// source file is machine-written.
func LoadWithTests(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns, true)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}  // plain import path → export data
	variants := map[string]string{} // tested import path → variant export data
	var targets []listPkg
	hasVariant := map[string]bool{} // tested import path → internal variant listed
	for _, p := range listed {
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test-binary main: machine-written source
		}
		if p.Error != nil {
			// Tolerate "no non-test Go files" shells: a directory like
			// cmd/clitest holds only an external test package, so the
			// plain package entry is an empty error stub while the real
			// sources arrive as the _test variant.
			if len(p.GoFiles) == 0 && !p.DepOnly {
				continue
			}
			return nil, fmt.Errorf("lint/loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			if p.isInternalTestVariant() {
				variants[p.ForTest] = p.Export
			} else if p.ForTest == "" {
				exports[p.ImportPath] = p.Export
			}
		}
		if !p.DepOnly && p.Name != "" {
			if p.isInternalTestVariant() {
				hasVariant[p.ForTest] = true
			}
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	shared := exportImporter(fset, exports, nil)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		if t.ForTest == "" && hasVariant[t.ImportPath] {
			continue // the test variant supersedes: same files plus _test.go
		}
		imp := shared
		if t.isExternalTestPkg() {
			// p_test imports p compiled *with* its test files; give this
			// package its own importer so the variant export data cannot
			// leak into (or be shadowed by) the shared cache.
			overrides := map[string]string{}
			if v, ok := variants[t.ForTest]; ok {
				overrides[t.ForTest] = v
			}
			imp = exportImporter(fset, exports, overrides)
		}
		files := make([]string, len(t.GoFiles))
		for i, g := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, g)
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir parses every .go file directly inside dir that belongs to the
// directory's primary package — including in-package _test.go files — as
// one package and typechecks it, resolving imports with go list. This is
// the analysistest entry point: testdata packages live outside any build
// target, so they are loaded by directory rather than by pattern. Files
// of an external _test package (package name ending in _test) are
// skipped; testdata fixtures exercise in-package test files.
func LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint/loader: %w", err)
	}
	var files []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		files = append(files, filepath.Join(dir, n))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint/loader: no .go files in %s", dir)
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	type parsedFile struct {
		path string
		ast  *ast.File
	}
	all := make([]parsedFile, 0, len(files))
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/loader: %w", err)
		}
		all = append(all, parsedFile{path: f, ast: af})
	}
	// The primary package is named by the first non-test file; a testdata
	// dir holding only _test.go files names it by its first file.
	pkgName := ""
	for _, p := range all {
		if !strings.HasSuffix(p.path, "_test.go") {
			pkgName = p.ast.Name.Name
			break
		}
	}
	if pkgName == "" {
		pkgName = all[0].ast.Name.Name
	}

	var kept []string
	var parsed []*ast.File
	imports := map[string]bool{}
	for _, p := range all {
		if p.ast.Name.Name != pkgName {
			continue
		}
		kept = append(kept, p.path)
		parsed = append(parsed, p.ast)
		for _, im := range p.ast.Imports {
			ip, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("lint/loader: bad import in %s: %w", p.path, err)
			}
			if ip != "unsafe" {
				imports[ip] = true
			}
		}
	}

	exports := map[string]string{}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(dir, paths, false)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("lint/loader: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	imp := exportImporter(fset, exports, nil)
	return checkFiles(fset, imp, pkgName, dir, kept, parsed)
}

func check(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string) (*Package, error) {
	parsed := make([]*ast.File, 0, len(files))
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/loader: %w", err)
		}
		parsed = append(parsed, af)
	}
	return checkFiles(fset, imp, importPath, dir, files, parsed)
}

func checkFiles(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string, parsed []*ast.File) (*Package, error) {
	conf := types.Config{Importer: imp}
	info := newInfo()
	tpkg, err := conf.Check(importPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint/loader: typecheck %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      parsed,
		Types:      tpkg,
		Info:       info,
	}, nil
}
