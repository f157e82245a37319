package analysis_test

// Meta-tests over the real tree: the full brokervet suite must be
// clean on the repository as committed, the load-bearing +guarded_by
// annotations must actually exist (a refactor that renames a field and
// silently drops its annotation weakens every analyzer downstream),
// and the vettool protocol must interoperate with `go vet`.

import (
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"probsum/internal/analysis"
	"probsum/internal/analysis/brokervet"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above test directory")
		}
		dir = parent
	}
}

func loadTree(t *testing.T) []*analysis.Package {
	t.Helper()
	pkgs, err := analysis.Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	return pkgs
}

// TestBrokervetCleanOnTree is the pin: the committed tree carries zero
// unsuppressed findings from the full suite. Any new violation of the
// lock, clock, wire, or journal invariants fails this test before it
// fails CI's brokervet step.
func TestBrokervetCleanOnTree(t *testing.T) {
	findings, err := analysis.RunAnalyzers(loadTree(t), brokervet.Suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestGuardAnnotationsPresent asserts the invariant-bearing fields are
// still annotated. The set is the contract reviewers rely on:
// dropping an annotation silently shrinks lockcheck's and
// journalcheck's coverage, so the expected sets live here in full.
func TestGuardAnnotationsPresent(t *testing.T) {
	expected := map[string]map[string][]string{
		"probsum/internal/broker": {
			"Broker": {"neighbors", "clients", "out", "outIDs", "idToSub",
				"nextID", "in", "matchers", "source", "recv"},
			"pubDedup": {"gens"},
		},
		"probsum/pubsub": {
			"tcpServer":     {"ports", "readers", "peerClu", "hooks"},
			"BrokerJournal": {"unsynced", "err"},
			"notifyQueue":   {"stats"},
			"Client":        {"stats"},
			"ClientStats":   {"pending", "raw"},
		},
		"probsum/pubsub/cluster": {
			"Node": {"rng", "self", "members", "lastGossip", "metrics"},
		},
		"probsum/internal/obs": {
			"FlightRecorder": {"ring", "next", "total"},
			"Registry":       {"counters", "gauges", "gaugeVecs", "hists", "links", "kindName"},
		},
	}

	byPath := make(map[string]*analysis.Package)
	for _, p := range loadTree(t) {
		byPath[p.ImportPath] = p
	}
	for path, typeFields := range expected {
		pkg, ok := byPath[path]
		if !ok {
			t.Errorf("package %s not in tree", path)
			continue
		}
		pass := &analysis.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		guards := analysis.CollectGuards(pass, pass.NonTestFiles(), false)
		byName := make(map[string]map[string]analysis.FieldGuard)
		for named, fields := range guards {
			byName[named.Obj().Name()] = fields
		}
		for typeName, fields := range typeFields {
			got := byName[typeName]
			if got == nil {
				t.Errorf("%s: type %s has no +guarded_by annotations", path, typeName)
				continue
			}
			for _, f := range fields {
				if _, ok := got[f]; !ok {
					t.Errorf("%s: field %s.%s lost its +guarded_by annotation", path, typeName, f)
				}
			}
		}
	}
}

// TestMetricsMethodsExist anchors the metrics-snapshot contract: the
// snapshot entry points lockcheck audits on every run (they must read
// only atomics or lock-held copies — TestBrokervetCleanOnTree proves
// the discipline) are still present under their audited names.
func TestMetricsMethodsExist(t *testing.T) {
	byPath := make(map[string]*analysis.Package)
	for _, p := range loadTree(t) {
		byPath[p.ImportPath] = p
	}
	for path, want := range map[string]map[string][]string{
		"probsum/internal/broker": {"Broker": {"Metrics", "NeighborTableMetrics"}},
		"probsum/pubsub/cluster":  {"Node": {"Metrics"}},
	} {
		pkg, ok := byPath[path]
		if !ok {
			t.Fatalf("package %s not in tree", path)
		}
		for typeName, methods := range want {
			obj := pkg.Types.Scope().Lookup(typeName)
			if obj == nil {
				t.Errorf("%s: type %s not found", path, typeName)
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				t.Errorf("%s: %s is not a named type", path, typeName)
				continue
			}
			for _, m := range methods {
				found := false
				for i := 0; i < named.NumMethods(); i++ {
					if named.Method(i).Name() == m {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: audited snapshot method %s.%s is gone", path, typeName, m)
				}
			}
		}
	}
}

// TestVettoolProtocol builds cmd/brokervet and drives it through `go
// vet -vettool=`, the unitchecker-style .cfg protocol: the run must
// succeed on a clean package with no setup beyond the go toolchain.
func TestVettoolProtocol(t *testing.T) {
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "brokervet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/brokervet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building brokervet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./internal/analysis/brokervet")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool failed: %v\n%s", err, out)
	}
}
