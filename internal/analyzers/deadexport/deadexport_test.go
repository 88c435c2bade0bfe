package deadexport_test

import (
	"testing"

	"github.com/defender-game/defender/internal/analyzers/analysistest"
	"github.com/defender-game/defender/internal/analyzers/deadexport"
)

// TestDeadExport runs the analyzer over a two-package fixture module with
// its tests: internal/lib declares one export per case, app refers to
// some of them from production code and from its tests.
func TestDeadExport(t *testing.T) {
	analysistest.RunModule(t, "testdata/src", []string{"internal/lib", "app"}, deadexport.Analyzer)
}
