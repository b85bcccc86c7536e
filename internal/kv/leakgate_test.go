package kv

import (
	"testing"

	"repro/internal/lint/leakcheck"
)

// TestMain routes the package through the runtime leak gate: a test
// that leaves a goroutine running after the suite (or wedges forever —
// see leakcheck.Watchdog) fails the binary with the offending stacks.
func TestMain(m *testing.M) { leakcheck.Main(m) }
