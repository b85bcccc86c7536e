package churn

import (
	"testing"

	"repro/internal/lint/leakcheck"
)

// TestMain routes the package through the runtime leak gate: every run
// starts goroutine-backed nodes, and one left serving after the suite
// (or a run that wedges — see leakcheck.Watchdog) fails the binary with
// the offending stacks.
func TestMain(m *testing.M) { leakcheck.Main(m) }
