package main

// The benchmark's own query sets. They are copies of the multi-query
// serving mix and the churn schedule, kept here on purpose: the
// benchmark must not import internal/bench, so a later change cannot
// move a workload by editing the paper-experiment harness.

import (
	"vqpy"

	"vqpy/internal/video"
)

func colorCarQuery(name, color string) *vqpy.Query {
	return vqpy.NewQuery(name).
		Use("car", vqpy.Car()).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.6),
			vqpy.P("car", "color").Eq(color),
		)).
		FrameOutput(vqpy.Sel("car", vqpy.PropTrackID), vqpy.Sel("car", "color"))
}

func peopleQuery(withFeature bool) *vqpy.Query {
	q := vqpy.NewQuery("People").
		Use("p", vqpy.Person()).
		Where(vqpy.P("p", vqpy.PropScore).Gt(0.5))
	if withFeature {
		return q.FrameOutput(vqpy.Sel("p", vqpy.PropTrackID), vqpy.Sel("p", "feature"))
	}
	return q.FrameOutput(vqpy.Sel("p", vqpy.PropTrackID))
}

func platesQuery() *vqpy.Query {
	return vqpy.NewQuery("Plates").
		Use("car", vqpy.Car()).
		Where(vqpy.P("car", vqpy.PropScore).Gt(0.7)).
		FrameOutput(vqpy.Sel("car", "plate"))
}

func whiteCarsQuery() *vqpy.Query {
	t := vqpy.NewVObj("WhiteVehicle", video.ClassCar).
		Detector("yolov8m").
		StatelessModel("color", "color_detect", true)
	return vqpy.NewQuery("WhiteCars").
		Use("w", t).
		Where(vqpy.And(
			vqpy.P("w", vqpy.PropScore).Gt(0.5),
			vqpy.P("w", "color").Eq("white"),
		))
}

func ballsQuery() *vqpy.Query {
	return vqpy.NewQuery("Balls").
		Use("b", vqpy.NewVObj("CheapBall", video.ClassBall).Detector("ball_person_cheap")).
		Where(vqpy.P("b", vqpy.PropScore).Gt(0.3))
}

// mixQueries is the 8-query serving mix: distinct detector and
// classifier footprints, plus two queries that ride another query's
// detector. Fresh values per call, so every session plans independently.
func mixQueries() []*vqpy.Query {
	vanType := vqpy.NewVObj("VanVehicle", video.ClassCar).
		Detector("car_detector").
		StatelessModel("kind", "type_detect", true)
	vans := vqpy.NewQuery("Vans").
		Use("v", vanType).
		Where(vqpy.And(
			vqpy.P("v", vqpy.PropScore).Gt(0.5),
			vqpy.P("v", "kind").Eq("van"),
		))
	fastType := vqpy.NewVObj("FastVehicle", video.ClassCar).Detector("yolov5s")
	blueCars := vqpy.NewQuery("BlueCars").
		Use("car", vqpy.Car()).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.6),
			vqpy.P("car", "color").Eq("blue"),
		)).
		CountDistinct("car")
	return []*vqpy.Query{
		peopleQuery(true), colorCarQuery("RedCar", "red"), whiteCarsQuery(), vans,
		vqpy.SpeedQuery("Speeding", "f", fastType, 12), ballsQuery(), platesQuery(), blueCars,
	}
}

func mixNodes() []vqpy.QueryNode {
	qs := mixQueries()
	nodes := make([]vqpy.QueryNode, len(qs))
	for i, q := range qs {
		nodes[i] = q
	}
	return nodes
}

// textSentences are the language queries of batch_perquery, one of
// each kind: a selective cascade (the lazy verifier sees few frames), a
// class-only cascade (it sees every frame with a car) and a sentence
// the closed vocabulary answers alone (it sees none).
var textSentences = []string{
	"red car faster than 12 stopped",
	"car stopped on crosswalk",
	"cars faster than 12",
}

// serveSentences rotate through the text slots of serve_mixed.
var serveSentences = []string{
	"red car faster than 12 stopped",
	"red suv car faster than 12 stopped",
	"red car faster than 15 stopped",
	"white van car stopped on crosswalk",
	"blue hatchback car stopped",
	"red car",
	"cars faster than 12",
}

// churnSpec schedules one standing query's residency on the live
// stream: it arrives at arriveAt and departs at departAt, both
// fractions of the clip (departAt 1 = stays to the end).
type churnSpec struct {
	name               string
	build              func() *vqpy.Query
	arriveAt, departAt float64
}

// churnSchedule is the 8-query churn mix: four queries share the car
// scan group, the others bring groups of their own; half depart at ¾.
func churnSchedule() []churnSpec {
	car := func(name, color string) func() *vqpy.Query {
		return func() *vqpy.Query { return colorCarQuery(name, color) }
	}
	return []churnSpec{
		{"RedCar", car("RedCar", "red"), 0, 1},
		{"People", func() *vqpy.Query { return peopleQuery(false) }, 0, 1},
		{"Plates", platesQuery, 0.1, 0.75},
		{"WhiteCars", whiteCarsQuery, 0.2, 1},
		{"BlueCars", car("BlueCars", "blue"), 0.3, 0.75},
		{"Speeding", func() *vqpy.Query { return vqpy.SpeedQuery("Speeding", "f", vqpy.Car(), 12) }, 0.4, 1},
		{"Balls", ballsQuery, 0.5, 0.75},
		{"BlackCars", car("BlackCars", "black"), 0.6, 1},
	}
}

// window resolves a spec's residency to frame indices [arrive, depart)
// over an n-frame clip.
func (c churnSpec) window(n int) (arrive, depart int) {
	arrive = int(c.arriveAt * float64(n))
	depart = n
	if c.departAt < 1 {
		depart = int(c.departAt * float64(n))
	}
	return arrive, depart
}

// archiveQuery is the query whose scan group the appearance index and
// the fidelity tiers are built over: confidently detected cars with
// track ids and plates — stateless residual properties, so it is both
// index-verifiable and fidelity-replayable.
func archiveQuery() *vqpy.Query {
	return vqpy.NewQuery("ArchiveCars").
		Use("car", vqpy.Car()).
		Where(vqpy.P("car", vqpy.PropScore).Gt(0.6)).
		FrameOutput(vqpy.Sel("car", vqpy.PropTrackID), vqpy.Sel("car", "plate"))
}
