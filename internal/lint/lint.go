// Package lint assembles DASSA's project-invariant analyzers into one
// runnable suite: load packages, run every analyzer, honor inline
// `//dassalint:ignore` suppressions, and hand back position-sorted
// findings. cmd/dassalint is the CLI veneer over Run; CI calls that.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"dassa/internal/lint/analysis"
	"dassa/internal/lint/closecheck"
	"dassa/internal/lint/cowopt"
	"dassa/internal/lint/goleak"
	"dassa/internal/lint/loader"
	"dassa/internal/lint/lockio"
	"dassa/internal/lint/wraperr"
)

// Analyzers returns the full suite in name order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
		cowopt.Analyzer,
		goleak.Analyzer,
		lockio.Analyzer,
		wraperr.Analyzer,
	}
}

// Finding is one reported diagnostic with its source position resolved.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// ignoreRE matches `//dassalint:ignore name[,name] optional reason`. The
// name list is strictly comma-separated lowercase words so a lowercase
// reason clause ("startup-only path") cannot bleed into it.
var ignoreRE = regexp.MustCompile(`^//\s*dassalint:ignore\s+([a-z]+(?:\s*,\s*[a-z]+)*)`)

// Run loads patterns relative to dir, each package with its test
// variant, and applies the selected analyzers (nil/empty only = all).
// Findings suppressed by a //dassalint:ignore comment on the same or
// preceding line are dropped.
func Run(dir string, patterns, only []string) ([]Finding, error) {
	pkgs, err := loader.LoadWithTests(dir, patterns)
	if err != nil {
		return nil, err
	}
	analyzers := Analyzers()
	if len(only) > 0 {
		keep := map[string]bool{}
		for _, n := range only {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			return nil, fmt.Errorf("lint: no analyzer matches %v (have %v)", only, names(analyzers))
		}
		analyzers = sel
	}

	known := map[string]bool{"all": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, auditIgnores(pkg, known)...)
		ignores := CollectIgnores(pkg)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if ignores.Covers(pos, name) {
					return
				}
				out = append(out, Finding{Analyzer: name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// auditIgnores flags //dassalint:ignore directives naming analyzers that
// do not exist: a stale name suppresses nothing, which silently turns an
// intentional exemption into dead weight (or hides a typo that leaves
// the real finding unsuppressed). The audit runs against the full suite
// regardless of -only, so narrowing a run never invalidates directives.
func auditIgnores(pkg *loader.Package, known map[string]bool) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				for _, n := range strings.Split(m[1], ",") {
					n = strings.TrimSpace(n)
					if n != "" && !known[n] {
						out = append(out, Finding{
							Analyzer: "dassalint",
							Pos:      pkg.Fset.Position(c.Pos()),
							Message: fmt.Sprintf("ignore directive names unknown analyzer %q "+
								"(known: %s, or all)", n, strings.Join(names(Analyzers()), ", ")),
						})
					}
				}
			}
		}
	}
	return out
}

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// Ignores maps file → line → suppressed analyzer names ("all" = every).
// It is exported so the analysistest harness applies the same
// suppression semantics the real Run does.
type Ignores map[string]map[int]map[string]bool

// Covers reports whether an ignore directive on the finding's line, or
// the line above it, names the analyzer (or "all").
func (s Ignores) Covers(pos token.Position, analyzer string) bool {
	lines, ok := s[pos.Filename]
	if !ok {
		return false
	}
	// Same-line trailing comment, or a standalone comment on the line above.
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if m, ok := lines[ln]; ok && (m[analyzer] || m["all"]) {
			return true
		}
	}
	return false
}

// CollectIgnores parses every //dassalint:ignore directive in pkg.
func CollectIgnores(pkg *loader.Package) Ignores {
	out := Ignores{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines, ok := out[pos.Filename]
				if !ok {
					lines = map[int]map[string]bool{}
					out[pos.Filename] = lines
				}
				set, ok := lines[pos.Line]
				if !ok {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				for _, n := range strings.Split(m[1], ",") {
					if n = strings.TrimSpace(n); n != "" {
						set[n] = true
					}
				}
			}
		}
	}
	return out
}
