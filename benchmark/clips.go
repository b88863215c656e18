package main

// The scenes. Throughput and cost per frame follow how busy a clip is,
// and a generated 120 s CityFlow clip varies by ±15 % in vehicles per
// frame from one scenario seed to the next (±40 % in people) — far more
// than any bound a regression gate could use. So the scenes are part of
// the benchmark's definition, generated from frozen scenario seeds
// chosen for a load at the median of 400 seeds, and -seed drives what
// is observed in and asked of them: every session's model noise
// (detections, labels, embeddings, verifier answers), the exemplar
// tracks, the request order.

import (
	"time"

	"vqpy"
)

const (
	// engineScene generates the CityFlow clip of the four engine
	// workloads: at 120 s, 19.67 vehicles and 1.37 people per frame.
	engineScene uint64 = 75
	// serveScene seeds the serving daemon, which generates both its
	// sources from its one seed: at 30 s, cityflow carries 14.11
	// vehicles per frame, banff 2.78 vehicles and 2.72 people.
	serveScene uint64 = 6666
)

// engineInputs is what every engine workload starts from: the clip,
// how long it took to generate, and the seed of every session (and of
// the store and index that must match it), derived from -seed.
type engineInputs struct {
	seed       uint64
	clip       *vqpy.Video
	generateMS float64
}

func newEngineInputs(env *runEnv) engineInputs {
	start := time.Now()
	clip := vqpy.GenerateVideo(vqpy.DatasetCityFlow(engineScene, env.P.ClipSeconds))
	return engineInputs{seed: splitmix64(env.Seed), clip: clip, generateMS: ms(time.Since(start))}
}
