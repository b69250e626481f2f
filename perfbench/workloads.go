package main

import "math"

// prepareAudio makes the knn-hot / knn-cold inputs: the paper's audio
// stand-in, 4000 × 192 under the exponential distance, served as the
// default collection, k = 20, binary protocol. Both workloads use the
// same data and queries for a given seed.
func (e *env) prepareAudio(cold bool) error {
	spec, n, err := audioSpec(e.o.scale)
	if err != nil {
		return err
	}
	e.k, e.cold = 20, cold
	// Both workloads draw from the same pool, so for a given seed they
	// share ladder queries and spare points, and knn-hot's queries are a
	// prefix of knn-cold's. The pool holds half as many points again as
	// the larger workload takes, so the seed decides which are drawn.
	nq := e.queryCount(hotSearchesPerSec)
	if cold {
		nq = e.queryCount(coldSearchesPerSec)
	}
	nl := scaled(hotLadderQ, math.Sqrt(e.o.scale))
	ns := 4 * ladderWrites
	most := nl + ns + e.queryCount(max(hotSearchesPerSec, coldSearchesPerSec))
	c, err := makeCol("default", spec, n, nq, nl, ns, most+most/2, e.o.seed)
	if err != nil {
		return err
	}
	e.col = c
	return nil
}

// queryCount is how many queries a run sends at perSec: enough that the
// kept segments hold perSec × --seconds of them, and a multiple of
// segments.
func (e *env) queryCount(perSec int) int {
	kept := e.scaled(perSec)
	return segments * ((kept + keptSegments - 1) / keptSegments)
}
