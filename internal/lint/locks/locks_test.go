package locks

import (
	"testing"

	"repro/internal/lint/linttest"
)

func TestLockAcrossRPC(t *testing.T) {
	linttest.Run(t, "testdata/src", "lockpkg", LockRPC)
}

// The cycle spans three fixture packages; only a program-level pass
// over all of them sees it.
func TestLockOrderCycles(t *testing.T) {
	linttest.RunPkgs(t, "testdata/src", []string{"lockc", "locka", "lockb"}, LockOrder)
}
