package main

import (
	"math/rand"
	"strconv"
	"strings"
)

// op is one weighted URL template. {seed} takes a study seed from the
// workload's pool and {offset} a page offset in [0, 1000) in steps of 50.
type op struct {
	name   string
	weight float64
	path   string
}

// The templates below copy loadgen's "default" and "scan" mixes. They are
// copied, not imported, so that a change to the program's load generator
// cannot change what this benchmark measures.
var (
	defaultMix = []op{
		{"events-recent", 20, "/v1/studies/{seed}/disengagements?limit=50"},
		{"events-mfr", 10, "/v1/studies/{seed}/disengagements?mfr=waymo&limit=50"},
		{"events-filtered", 8, "/v1/studies/{seed}/disengagements?category=ml%2Fdesign&weather=raining&limit=100"},
		{"events-window", 7, "/v1/studies/{seed}/disengagements?from=2015-01&to=2015-12&limit=100"},
		{"events-paged", 10, "/v1/studies/{seed}/disengagements?offset={offset}&limit=100"},
		{"groupby-tag", 10, "/v1/studies/{seed}/groupby?by=tag"},
		{"groupby-category", 5, "/v1/studies/{seed}/groupby?by=category&mfr=waymo"},
		{"groupby-road", 5, "/v1/studies/{seed}/groupby?by=road&modality=automatic"},
		{"reliability", 15, "/v1/studies/{seed}/metrics/reliability"},
		{"accidents", 7, "/v1/studies/{seed}/accidents?limit=50"},
		{"table-i", 2, "/v1/studies/{seed}/tables/i"},
		{"table-vii", 1, "/v1/studies/{seed}/tables/vii"},
	}
	scanMix = []op{
		{"events-paged", 60, "/v1/studies/{seed}/disengagements?offset={offset}&limit=1000"},
		{"events-mfr-paged", 25, "/v1/studies/{seed}/disengagements?mfr=waymo&offset={offset}&limit=1000"},
		{"accidents-paged", 15, "/v1/studies/{seed}/accidents?offset={offset}&limit=50"},
	}
)

// request is one entry of a workload's request sequence.
type request struct {
	op   string
	seed int64
	path string
}

// sequenceLen is how many requests a sequence holds before it wraps. It
// exceeds what the fastest workload sends in a 60 s run at the measured
// rates, so in practice no request repeats within a run.
const sequenceLen = 1 << 17

// sequence draws n requests from mix over seeds, deterministically from
// rng: the same seed gives the same sequence.
func sequence(rng *rand.Rand, mix []op, seeds []int64, n int) []request {
	var total float64
	for _, o := range mix {
		total += o.weight
	}
	out := make([]request, n)
	for i := range out {
		o := pick(mix, total, rng.Float64())
		seed := seeds[rng.Intn(len(seeds))]
		out[i] = request{op: o.name, seed: seed, path: resolve(o.path, seed, 50*rng.Intn(20))}
	}
	return out
}

// probes returns one request per op of mix, for the output checks.
func probes(mix []op, seed int64, offset int) []request {
	out := make([]request, len(mix))
	for i, o := range mix {
		out[i] = request{op: o.name, seed: seed, path: resolve(o.path, seed, offset)}
	}
	return out
}

// pick chooses the op whose cumulative weight first exceeds u*total.
func pick(mix []op, total, u float64) op {
	u *= total
	var acc float64
	for _, o := range mix {
		acc += o.weight
		if u < acc {
			return o
		}
	}
	return mix[len(mix)-1]
}

func resolve(tmpl string, seed int64, offset int) string {
	out := strings.ReplaceAll(tmpl, "{seed}", strconv.FormatInt(seed, 10))
	return strings.ReplaceAll(out, "{offset}", strconv.Itoa(offset))
}

// Study seeds come from a fixed catalogue: 1..catalogueSize, less the
// seeds on which the pipeline missed the paper checks when the catalogue
// was drawn up (OCR noise there costs a report's header rows or an
// accident report). The checks then catch regressions instead of failing
// on inputs known to be hard.
const catalogueSize = 1024

var excludedSeeds = map[int64]bool{165: true, 190: true, 398: true, 413: true, 446: true, 645: true}

// distinctSeeds draws n distinct catalogue seeds from rng, none in avoid,
// and adds them to avoid.
func distinctSeeds(rng *rand.Rand, n int, avoid map[int64]bool) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		s := 1 + rng.Int63n(catalogueSize)
		if avoid[s] || excludedSeeds[s] {
			continue
		}
		avoid[s] = true
		out = append(out, s)
	}
	return out
}
