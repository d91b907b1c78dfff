// dassalint runs DASSA's project-invariant static analyzers over Go
// package patterns and reports violations in the familiar
// file:line:col: message [analyzer] shape.
//
//	go run ./cmd/dassalint ./...            # whole repo incl. _test.go (what CI runs)
//	go run ./cmd/dassalint -only lockio ./internal/serve
//	go run ./cmd/dassalint -list
//
// Exit codes: 0 clean, 1 findings, 2 usage/load failure. Individual
// findings can be suppressed — with a reason — by an inline comment on
// the flagged line or the line above:
//
//	//dassalint:ignore lockio scan mutex is not on any request path
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dassa/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and the invariants they encode")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dassalint [-list] [-only a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var onlyList []string
	if *only != "" {
		onlyList = strings.Split(*only, ",")
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dassalint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(wd, patterns, onlyList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dassalint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dassalint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
