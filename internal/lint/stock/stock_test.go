package stock

import (
	"testing"

	"repro/internal/lint/linttest"
)

func TestShadow(t *testing.T) {
	linttest.Run(t, "testdata/src", "shpkg", Shadow)
}

func TestNilness(t *testing.T) {
	linttest.Run(t, "testdata/src", "nilpkg", Nilness)
}
