package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"dassa/internal/lint/loader"
)

const ignoreSrc = `package p

func a() {
	_ = 1 //dassalint:ignore lockio startup-only path
}

func b() {
	//dassalint:ignore closecheck, lockio justified
	_ = 2
}

func c() {
	_ = 3 //dassalint:ignore all everything hushed here
}

func d() {
	_ = 4 // no ignore at all
}
`

func TestIgnoreSuppression(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", ignoreSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ig := CollectIgnores(&loader.Package{Fset: fset, Files: []*ast.File{f}})

	at := func(line int) token.Position {
		return token.Position{Filename: "p.go", Line: line}
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "lockio", true},      // same-line trailing comment
		{4, "closecheck", false}, // different analyzer not covered
		{9, "closecheck", true},  // comment line above the statement
		{9, "lockio", true},      // comma-separated list
		{9, "goleak", false},     // not in the list
		{13, "wraperr", true},    // "all" covers every analyzer
		{17, "lockio", false},    // plain comment is not an ignore
	}
	for _, c := range cases {
		if got := ig.Covers(at(c.line), c.analyzer); got != c.want {
			t.Errorf("Covers(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

const staleIgnoreSrc = `package p

func a() {
	_ = 1 //dassalint:ignore lockvet typo of a real analyzer
}

func b() {
	_ = 2 //dassalint:ignore goleak, nosuch one real, one stale
}

func c() {
	_ = 3 //dassalint:ignore all valid
}
`

func TestAuditIgnoresFlagsUnknownNames(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", staleIgnoreSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"all": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	got := auditIgnores(&loader.Package{Fset: fset, Files: []*ast.File{f}}, known)
	if len(got) != 2 {
		t.Fatalf("auditIgnores found %d findings, want 2: %v", len(got), got)
	}
	for i, wantName := range []string{"lockvet", "nosuch"} {
		if !strings.Contains(got[i].Message, wantName) {
			t.Errorf("finding %d = %q, want mention of %q", i, got[i].Message, wantName)
		}
		if got[i].Analyzer != "dassalint" {
			t.Errorf("finding %d analyzer = %q, want dassalint", i, got[i].Analyzer)
		}
	}
}

func TestAnalyzersComplete(t *testing.T) {
	want := []string{"closecheck", "cowopt", "goleak", "lockio", "wraperr"}
	got := names(Analyzers())
	if len(got) != len(want) {
		t.Fatalf("Analyzers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Analyzers()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}
