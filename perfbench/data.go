package main

import (
	"fmt"
	"math"
	"math/rand"

	"brepartition/internal/bregman"
	"brepartition/internal/dataset"
)

// numTags is how many distinct tags the ladder's filtered rung and the
// write ladder draw from; a one-tag filter admits about 1/numTags of the
// points.
const numTags = 8

func tagName(t int) string { return fmt.Sprintf("t%d", t) }

// colData is the served collection's inputs: the points it holds, the
// held-out queries the workload and the ladder send, and spare held-out
// points for the write ladder's inserts. Nothing in queries, ladderQ or
// spare is ever in the index when it is queried.
type colData struct {
	name string
	div  bregman.Divergence
	dim  int

	points  [][]float64 // contents; point i has id i
	queries [][]float64 // workload queries, each sent once
	ladderQ [][]float64 // ladder queries, disjoint from queries
	spare   [][]float64 // held-out points for the write ladder
}

// heldOut generates n points from spec followed by a pool of extra
// held-out points from the same distribution. The generator is
// sequential, so the first n points are exactly what Generate(spec with
// N=n) returns. Exact duplicates of earlier points are dropped from the
// pool, so every query is distinct within a run and the result cache
// cannot hit.
func heldOut(spec dataset.Spec, n, extra int) (pts, pool [][]float64, err error) {
	spec.N = n + extra + extra/8 + 8
	ds, err := dataset.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[uint64]bool, spec.N)
	out := make([][]float64, 0, spec.N)
	for i, p := range ds.Points {
		h := hashPoint(p)
		if seen[h] {
			if i < n {
				return nil, nil, fmt.Errorf("dataset %s: duplicate point %d in the indexed set", spec.Name, i)
			}
			continue
		}
		seen[h] = true
		out = append(out, p)
	}
	if len(out) < n+extra {
		return nil, nil, fmt.Errorf("dataset %s: only %d distinct points, need %d", spec.Name, len(out), n+extra)
	}
	return out[:n], out[n : n+extra], nil
}

// hashPoint is FNV-1a over the coordinates' bits.
func hashPoint(p []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

// makeCol generates a collection from spec: n indexed points, then nl
// ladder queries, ns spare points and nq workload queries drawn, in that
// order, by the run seed from a held-out pool of poolN points (at least
// nl+ns+nq). The indexed points depend on the spec alone, so runs with
// different seeds serve the same index and differ only in what they ask
// of it; two workloads with the same spec, pool and seed get the same
// ladder queries and spare points, and the one with fewer workload
// queries gets a prefix of the other's.
func makeCol(name string, spec dataset.Spec, n, nq, nl, ns, poolN int, seed int64) (*colData, error) {
	div, err := bregman.ByName(spec.Divergence)
	if err != nil {
		return nil, err
	}
	need := nl + ns + nq
	if poolN < need {
		return nil, fmt.Errorf("dataset %s: pool of %d held-out points, need %d", spec.Name, poolN, need)
	}
	pts, pool, err := heldOut(spec, n, poolN)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pick := rng.Perm(len(pool))[:need]
	rest := make([][]float64, need)
	for i, j := range pick {
		rest[i] = pool[j]
	}
	return &colData{
		name:    name,
		div:     div,
		dim:     spec.Dim,
		points:  pts,
		ladderQ: rest[:nl],
		spare:   rest[nl : nl+ns],
		queries: rest[nl+ns:],
	}, nil
}

// audioSpec is the paper's audio stand-in at half its default
// cardinality: 4000 points × 192 dims under the exponential distance.
func audioSpec(scale float64) (dataset.Spec, int, error) {
	spec, err := dataset.PaperSpec("audio", 0.5)
	if err != nil {
		return spec, 0, err
	}
	return spec, scaled(spec.N, scale), nil
}

// scaled shrinks a size for the smoke test; real runs use scale 1.
func scaled(n int, scale float64) int {
	v := int(math.Round(float64(n) * scale))
	if v < 8 {
		v = 8
	}
	return v
}
