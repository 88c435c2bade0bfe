// Package analyzers registers the project's invariant checkers: the suite
// run by cmd/defenderlint and the CI lint gate. See the individual analyzer
// packages for the invariant each one encodes.
package analyzers

import (
	"github.com/defender-game/defender/internal/analyzers/analysis"
	"github.com/defender-game/defender/internal/analyzers/deadexport"
	"github.com/defender-game/defender/internal/analyzers/errlost"
	"github.com/defender-game/defender/internal/analyzers/floateq"
	"github.com/defender-game/defender/internal/analyzers/globalrand"
	"github.com/defender-game/defender/internal/analyzers/lockheld"
	"github.com/defender-game/defender/internal/analyzers/metricname"
	"github.com/defender-game/defender/internal/analyzers/mutexcopy"
	"github.com/defender-game/defender/internal/analyzers/nakedpanic"
	"github.com/defender-game/defender/internal/analyzers/parhot"
	"github.com/defender-game/defender/internal/analyzers/ratalias"
	"github.com/defender-game/defender/internal/analyzers/ratraw"
)

// All returns the eleven registered analyzers, in deterministic order. The
// suppression auditor is not listed here: it is part of the framework
// (analysis.AuditorName) and runs on every invocation.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		deadexport.Analyzer,
		errlost.Analyzer,
		floateq.Analyzer,
		globalrand.Analyzer,
		lockheld.Analyzer,
		metricname.Analyzer,
		mutexcopy.Analyzer,
		nakedpanic.Analyzer,
		parhot.Analyzer,
		ratalias.Analyzer,
		ratraw.Analyzer,
	}
}
