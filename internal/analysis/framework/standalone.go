package framework

import (
	"go/token"
	"sort"
)

// Standalone loads the packages matching patterns (relative to dir, ""
// meaning the current directory) with `go list -export -json -deps`,
// type-checks each non-dependency package from source against the
// toolchain's export data, and applies every analyzer. It runs
// `go run ./cmd/vetcheck ./...`, the repo self-check and the
// dead-surface test in cmd/vetcheck.
func Standalone(dir string, analyzers []*Analyzer, patterns ...string) ([]Finding, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs)
	var findings []Finding
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		var filenames []string
		for _, f := range p.GoFiles {
			filenames = append(filenames, p.Dir+"/"+f)
		}
		files, pkg, info, err := typeCheck(fset, p.ImportPath, filenames, imp)
		if err != nil {
			return nil, err
		}
		fs, err := runAnalyzers(fset, files, pkg, info, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}
