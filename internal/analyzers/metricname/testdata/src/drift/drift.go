// Package drift seeds catalogue drift in both directions: a metric
// registered in code but missing from OBSERVABILITY.md, and catalogue
// table rows naming metrics no code registers.
package drift

import "internal/obs"

func register() {
	obs.Default().Counter("drift.known.metric")
	obs.Default().Counter("drift.introduced.metric") // want `metric "drift.introduced.metric" is not in the OBSERVABILITY.md catalogue`
	obs.Default().StartSpan("drift.solve")
}
