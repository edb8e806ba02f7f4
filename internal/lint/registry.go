// Package lint is buddylint's analyzer suite: the repo's correctness
// invariants — the Device lock hierarchy, the allocation-free hot path,
// sentinel-error discipline and allocation lifecycle — expressed as
// go/analysis-style analyzers instead of grep rules and review convention.
// cmd/buddylint runs every analyzer in Analyzers over the module; see
// DESIGN.md "Invariants as analyzers".
package lint

import (
	"go/token"
	"strings"

	"buddy/internal/lint/analysis"
)

// Analyzers returns the buddylint suite in reporting order. The registry
// test pins this count against the fixture directories: a new analyzer
// cannot ship without analysistest fixtures.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		LockOrder,
		HotPathAlloc,
		SentinelErr,
		MustClose,
	}
}

// inTestFile reports whether filename is a Go test file.
func inTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// posFile returns the file name of pos under pass's FileSet.
func posFile(pass *analysis.Pass, pos token.Pos) string {
	return pass.Fset.Position(pos).Filename
}
