package bench

// Query builders more than one system experiment's workload uses. Each
// call returns a fresh value, so every arm plans independently.

import (
	"vqpy"

	"vqpy/internal/core"
	"vqpy/internal/video"
)

// colorCarQuery matches confidently detected cars of one color.
func colorCarQuery(name, color string) *vqpy.Query {
	return vqpy.NewQuery(name).
		Use("car", vqpy.Car()).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.6),
			vqpy.P("car", "color").Eq(color),
		)).
		FrameOutput(vqpy.Sel("car", vqpy.PropTrackID), vqpy.Sel("car", "color"))
}

// platesQuery reads plates off the shared car scan.
func platesQuery() *vqpy.Query {
	return vqpy.NewQuery("Plates").
		Use("car", vqpy.Car()).
		Where(vqpy.P("car", vqpy.PropScore).Gt(0.7)).
		FrameOutput(vqpy.Sel("car", "plate"))
}

// whiteCarsQuery brings a detector of its own (a scan group no other
// query shares).
func whiteCarsQuery() *vqpy.Query {
	t := core.NewVObj("WhiteVehicle", video.ClassCar).
		Detector("yolov8m").
		StatelessModel("color", "color_detect", true)
	return vqpy.NewQuery("WhiteCars").
		Use("w", t).
		Where(vqpy.And(
			vqpy.P("w", vqpy.PropScore).Gt(0.5),
			vqpy.P("w", "color").Eq("white"),
		))
}

// ballsQuery runs on the cheap specialized detector.
func ballsQuery() *vqpy.Query {
	return vqpy.NewQuery("Balls").
		Use("b", core.NewVObj("CheapBall", video.ClassBall).Detector("ball_person_cheap")).
		Where(vqpy.P("b", vqpy.PropScore).Gt(0.3))
}

// peopleQuery is the plain per-source person query.
func peopleQuery() *vqpy.Query {
	return vqpy.NewQuery("People").
		Use("p", vqpy.Person()).
		Where(vqpy.P("p", vqpy.PropScore).Gt(0.5)).
		FrameOutput(vqpy.Sel("p", vqpy.PropTrackID))
}

// carPlateQuery is the archive workload of E20 and E22: confidently
// detected cars with track ids and plates — stateless residual
// properties, so the query is index-verifiable and fidelity-replayable.
func carPlateQuery(name string) *vqpy.Query {
	return vqpy.NewQuery(name).
		Use("car", vqpy.Car()).
		Where(vqpy.P("car", vqpy.PropScore).Gt(0.6)).
		FrameOutput(vqpy.Sel("car", vqpy.PropTrackID), vqpy.Sel("car", "plate"))
}
