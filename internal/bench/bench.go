// Package bench is the experiment harness: one runner per table / figure
// of the paper's evaluation (§5), each regenerating the corresponding
// rows or series with the same workloads, baselines and metrics. See
// DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured outcomes.
package bench

import (
	"vqpy"

	"vqpy/internal/core"
	"vqpy/internal/geom"
	"vqpy/internal/video"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Seed drives all scenario generation and model noise.
	Seed uint64
	// Scale multiplies workload durations; 1.0 approximates the
	// paper's clip lengths, smaller values keep unit tests fast.
	Scale float64
	// Burn enables proportional real CPU work so wall-clock time
	// mirrors virtual time (benchmarks set it; tests leave it off).
	Burn bool
	// Workers sets the parallel scheduler's pool size for multi-query
	// experiments (0 picks the default, 4).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20240501
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// session builds a session from the Config — the one place the harness
// constructs sessions (the arm runner adds offload latency on top).
func (c Config) session() *vqpy.Session {
	s := vqpy.NewSession(c.Seed)
	s.SetNoBurn(!c.Burn)
	return s
}

// boolMetric encodes a correctness flag as a gateable scalar.
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// cvipStyleCar builds the §5.1 vehicle VObj: the same pretrained models
// CVIP uses (color, type and direction classifiers), with color and type
// intrinsic (the user annotations of §4.2).
func cvipStyleCar() *core.VObjType {
	return core.NewVObj("Vehicle", video.ClassCar).
		Detector("yolox").
		StatelessModel("color", "color_detect", true).
		StatelessModel("kind", "type_detect", true).
		StatelessModel("direction", "direction_model", false)
}

// cvipStyleQuery expresses a standardized color-type-direction query
// with VQPy constructs, constraint ordered cheap-to-expensive so lazy
// evaluation can skip models (the §5.1 mechanism).
func cvipStyleQuery(name string, color video.Color, kind video.VehicleKind, dir geom.Direction) *core.Query {
	car := cvipStyleCar()
	return core.NewQuery(name).
		Use("car", car).
		Where(core.And(
			core.P("car", core.PropScore).Gt(0.5),
			core.P("car", "color").Eq(color.String()),
			core.P("car", "kind").Eq(kind.String()),
			core.P("car", "direction").Eq(dir.String()),
		)).
		FrameOutput(core.Sel("car", core.PropTrackID))
}

// fig13Queries is Table 1: the five CityFlow-NL queries in standardized
// form.
type fig13Query struct {
	id, text string
	color    video.Color
	kind     video.VehicleKind
	dir      geom.Direction
}

func fig13Queries() []fig13Query {
	return []fig13Query{
		{"Q1", "green sedan go straight", video.ColorGreen, video.KindSedan, geom.DirStraight},
		{"Q2", "green bus go straight", video.ColorGreen, video.KindBusKind, geom.DirStraight},
		{"Q3", "red sedan go straight", video.ColorRed, video.KindSedan, geom.DirStraight},
		{"Q4", "black sedan go straight", video.ColorBlack, video.KindSedan, geom.DirStraight},
		{"Q5", "black suv turn right", video.ColorBlack, video.KindSUV, geom.DirRight},
	}
}

// fig13BusQuery adapts the query for the bus class (Q2).
func cvipStyleBusQuery(name string, color video.Color, dir geom.Direction) *core.Query {
	bus := core.NewVObj("BusVehicle", video.ClassBus).
		Detector("yolox").
		StatelessModel("color", "color_detect", true).
		StatelessModel("kind", "type_detect", true).
		StatelessModel("direction", "direction_model", false)
	return core.NewQuery(name).
		Use("bus", bus).
		Where(core.And(
			core.P("bus", core.PropScore).Gt(0.5),
			core.P("bus", "color").Eq(color.String()),
			core.P("bus", "direction").Eq(dir.String()),
		)).
		FrameOutput(core.Sel("bus", core.PropTrackID))
}
