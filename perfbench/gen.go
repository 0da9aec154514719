package main

import (
	"math/rand"
	"time"
)

// Traffic shape of serve-mixed. Budgets are small so a miss simulates in
// milliseconds; the fresh budgets never equal the hot one, so a fresh
// request always misses the result cache. The fresh ladder is narrow so
// that a miss costs about the same whichever budget the seed draws.
const (
	serveRate = 40.0 // offered requests per second (open loop)
	// Every block of serveBlock consecutive requests holds serveRepeats
	// repeats of a cached config, in seeded positions: 60% repeats,
	// exactly, in every stretch of the run.
	serveBlock      = 5
	serveRepeats    = 3
	serveHotUops    = 9_000
	serveFreshBase  = 10_000
	serveFreshStep  = 10
	serveFreshSteps = 128 // distinct fresh budgets per kernel
)

// serveReq is one scheduled submission.
type serveReq struct {
	due     time.Duration // offset from the start of the schedule
	kernel  string
	maxUops uint64
	repeat  bool // a hot config, answered from the result cache
}

// schedule derives the serve-mixed request sequence from the seed alone:
// Poisson arrivals at rate per second over dur. A repeat asks for one of
// the hot configs (one per kernel, cached during set-up); any other
// request is the next fresh (kernel, budget) pair.
// Fresh kernels cycle through a seeded permutation, and the k-th fresh
// request of a kernel takes the k-th budget of a seeded permutation of
// the budget ladder, so every fresh pair is distinct and every kernel
// gets the same share of misses whatever the seed.
func schedule(seed int64, dur time.Duration, rate float64, kernels []string) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(kernels))
	ladders := make([][]int, len(kernels))
	for i := range ladders {
		ladders[i] = rng.Perm(serveFreshSteps)
	}
	used := make([]int, len(kernels))
	fresh := 0
	var out []serveReq
	var block []int
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		if len(block) == 0 {
			block = rng.Perm(serveBlock)
		}
		repeat := block[0] < serveRepeats
		block = block[1:]
		if repeat {
			k := kernels[rng.Intn(len(kernels))]
			out = append(out, serveReq{due: due, kernel: k, maxUops: serveHotUops, repeat: true})
			continue
		}
		ki := order[fresh%len(order)]
		fresh++
		step := ladders[ki][used[ki]%serveFreshSteps]
		used[ki]++
		out = append(out, serveReq{
			due: due, kernel: kernels[ki],
			maxUops: uint64(serveFreshBase + serveFreshStep*step),
		})
	}
}
