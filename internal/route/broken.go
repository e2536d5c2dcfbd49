package route

import (
	"fmt"

	"klocal/internal/graph"
	"klocal/internal/prep"
)

// Algorithm2Broken is Algorithm 2 with its one non-trivial decision rule
// disabled: instead of advancing circularly through the active
// neighbours by rank (and honouring the predecessor), every
// beyond-the-horizon decision forwards to the lowest-rank active root,
// as if the message had just entered from a passive component. The
// resulting walk ping-pongs between adjacent nodes whose lowest-rank
// roots face each other, so delivery fails on graphs Algorithm 2 is
// proven to serve.
//
// This variant exists solely as klocalcheck's self-test hook: the
// differential fuzzer must find a delivery violation against it and
// shrink the scenario to a minimal reproducer (see internal/fuzz and
// the acceptance test there). Never route real traffic with it.
func Algorithm2Broken() Algorithm {
	return Algorithm{
		Name:             "Algorithm2[broken:no-advance]",
		OriginAware:      false,
		PredecessorAware: true,
		MinK:             MinK2,
		Policy:           prep.PolicyMinRank,
		Over:             func(*prep.Preprocessor) Func { return algorithm2Broken },
	}
}

// algorithm2Broken is Algorithm2Broken's decision.
func algorithm2Broken(_, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	if hop := view.C.NextHopFromCenter(t); hop != graph.NoVertex {
		return hop, nil
	}
	roots := view.RoutingHalfScratch(sc).ActiveRoots
	if len(roots) > 2 {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return graph.NoVertex, fmt.Errorf("%w: active degree %d > 2", ErrLocalityTooSmall, len(roots))
	}
	// BROKEN: the arrival classification is discarded, so the
	// circular-advance rule never fires and the predecessor is
	// effectively ignored.
	_ = v
	return decideActive(rulesU, roots, arrivalPassive, -1)
}
