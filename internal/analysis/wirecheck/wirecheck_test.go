package wirecheck_test

import (
	"path/filepath"
	"testing"

	"probsum/internal/analysis/analysistest"
	"probsum/internal/analysis/wirecheck"
)

func TestWirecheckViolations(t *testing.T) {
	analysistest.Run(t, wirecheck.Analyzer, filepath.Join("testdata", "src", "a"))
}

func TestWirecheckClean(t *testing.T) {
	// Package b is a complete, symmetric codec: zero diagnostics
	// expected (the fixture has no want comments).
	analysistest.Run(t, wirecheck.Analyzer, filepath.Join("testdata", "src", "b"))
}
