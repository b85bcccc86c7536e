package nodeterm

import (
	"testing"

	"repro/internal/lint/linttest"
)

// scoped points the analyzer at fixture packages for one test.
func scoped(t *testing.T, scope map[string][]string) {
	t.Helper()
	saved := Deterministic
	Deterministic = scope
	t.Cleanup(func() { Deterministic = saved })
}

func TestDeterministicPackage(t *testing.T) {
	scoped(t, map[string][]string{"determ": nil})
	linttest.Run(t, "testdata/src", "determ", Analyzer)
}

func TestFileGlobScope(t *testing.T) {
	scoped(t, map[string][]string{"memscope": {"mem*.go"}})
	linttest.Run(t, "testdata/src", "memscope", Analyzer)
}

func TestOutOfScopePackageIsIgnored(t *testing.T) {
	// The determ fixture is full of violations, but with no scope entry
	// the analyzer must stay silent (the malformed-allow finding is the
	// suppression layer's, not nodeterm's, and fires regardless).
	scoped(t, map[string][]string{})
	for _, d := range linttest.Diagnostics(t, "testdata/src", "determ", Analyzer) {
		if d.Analyzer == "nodeterm" {
			t.Fatalf("out-of-scope package produced nodeterm diagnostic: %v", d)
		}
	}
}

func TestRealScopeCoversContractPackages(t *testing.T) {
	for _, pkg := range []string{
		"repro/internal/eventsim",
		"repro/internal/churn",
		"repro/internal/simcheck",
		"repro/internal/faultnet",
		"repro/internal/experiments",
		"repro/internal/wire",
	} {
		if _, ok := Deterministic[pkg]; !ok {
			t.Errorf("deterministic scope lost %s", pkg)
		}
	}
}
