// Buddylint is the repo's invariant gate: a multichecker running the
// internal/lint analyzer suite — lockorder, hotpathalloc, sentinelerr,
// mustclose — over the module; `make lint` runs it after go vet.
//
// Usage:
//
//	buddylint [-list] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status is 0 when the tree is clean, 1 when findings are reported, 2
// when loading or analysis itself fails (for example, on a tree that does
// not type-check).
//
// Findings can be suppressed, one site at a time, with a justified
// directive on or directly above the flagged line:
//
//	//nolint:buddy/<analyzer> -- reason the violation is safe here
//
// A directive without a reason — or one matching no diagnostic — is
// itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"buddy/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: buddylint [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	flag.Parse()
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "buddylint:", err)
		os.Exit(2)
	}
	n, err := lint.Run(dir, patterns, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buddylint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "buddylint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func firstLine(doc string) string {
	for i := 0; i < len(doc); i++ {
		if doc[i] == '\n' {
			return doc[:i]
		}
	}
	return doc
}
