package loader_test

import (
	"go/token"
	"strings"
	"testing"

	"dassa/internal/lint/loader"
)

// moduleRoot is this package's position in the tree; tests shell out to
// `go list` from the repo root so ./... patterns resolve.
const moduleRoot = "../../.."

func fileNames(fset *token.FileSet, pkg *loader.Package) []string {
	var out []string
	for _, f := range pkg.Files {
		out = append(out, fset.Position(f.Pos()).Filename)
	}
	return out
}

func hasFileSuffix(names []string, suffix string) bool {
	for _, n := range names {
		if strings.HasSuffix(n, suffix) {
			return true
		}
	}
	return false
}

// TestLoadWithTestsVariants proves the loader's test-variant loading:
// a package with in-package tests arrives as its test variant (all
// sources + _test.go, typechecked together), its plain form is dropped
// as redundant, and external _test packages typecheck against the
// package under test.
func TestLoadWithTestsVariants(t *testing.T) {
	pkgs, err := loader.LoadWithTests(moduleRoot, []string{
		"./internal/lint",        // has in-package lint_test.go
		"./internal/lint/lockio", // has external lockio_test.go
	})
	if err != nil {
		t.Fatalf("LoadWithTests: %v", err)
	}
	byPath := map[string]*loader.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}

	variant := byPath["dassa/internal/lint [dassa/internal/lint.test]"]
	if variant == nil {
		t.Fatalf("no test variant of dassa/internal/lint; have %v", keys(byPath))
	}
	if _, ok := byPath["dassa/internal/lint"]; ok {
		t.Errorf("plain dassa/internal/lint should be superseded by its test variant")
	}
	names := fileNames(variant.Fset, variant)
	if !hasFileSuffix(names, "lint.go") || !hasFileSuffix(names, "lint_test.go") {
		t.Errorf("variant files = %v, want lint.go and lint_test.go", names)
	}
	// The _test.go file typechecked against the non-test sources: its
	// test functions are in the variant's scope alongside lint.Run.
	if variant.Types.Scope().Lookup("TestIgnoreSuppression") == nil {
		t.Errorf("test-file symbol TestIgnoreSuppression missing from variant scope")
	}
	if variant.Types.Scope().Lookup("Run") == nil {
		t.Errorf("non-test symbol Run missing from variant scope")
	}

	// lockio has only external tests: the plain package stays, and the
	// lockio_test package loads as its own unit.
	if _, ok := byPath["dassa/internal/lint/lockio"]; !ok {
		t.Errorf("plain dassa/internal/lint/lockio missing (no in-package tests, so no variant)")
	}
	var ext *loader.Package
	for p, pkg := range byPath {
		if strings.HasPrefix(p, "dassa/internal/lint/lockio_test ") {
			ext = pkg
		}
	}
	if ext == nil {
		t.Fatalf("external test package lockio_test not loaded; have %v", keys(byPath))
	}
	if ext.Types.Name() != "lockio_test" {
		t.Errorf("external test package name = %q, want lockio_test", ext.Types.Name())
	}
	if ext.Types.Scope().Lookup("TestLockio") == nil {
		t.Errorf("TestLockio missing from external test package scope")
	}

	// No generated *.test mains may leak through.
	for p := range byPath {
		if strings.HasSuffix(p, ".test") {
			t.Errorf("generated test-binary main %q should be skipped", p)
		}
	}
}

// TestLoadDirIncludesTestFiles proves the analysistest entry point feeds
// in-package _test.go fixtures through the typechecker (external _test
// package files are skipped, not an error).
func TestLoadDirIncludesTestFiles(t *testing.T) {
	pkg, err := loader.LoadDir("../goleak/testdata/src/a")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	names := fileNames(pkg.Fset, pkg)
	if !hasFileSuffix(names, "a.go") || !hasFileSuffix(names, "a_test.go") {
		t.Errorf("LoadDir files = %v, want a.go and a_test.go", names)
	}
	if pkg.Types.Scope().Lookup("TestSpawnLeaks") == nil {
		t.Errorf("in-package test symbol TestSpawnLeaks missing from LoadDir scope")
	}
}

func keys(m map[string]*loader.Package) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
