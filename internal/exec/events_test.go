package exec

import (
	"testing"
	"testing/quick"

	"vqpy/internal/sim"
)

func bools(s string) []bool {
	out := make([]bool, len(s))
	for i, c := range s {
		out[i] = c == '1'
	}
	return out
}

func TestEventsOf(t *testing.T) {
	cases := []struct {
		in   string
		want []Event
	}{
		{"", nil},
		{"000", nil},
		{"111", []Event{{0, 2}}},
		{"0110", []Event{{1, 2}}},
		{"101", []Event{{0, 0}, {2, 2}}},
		{"1100111", []Event{{0, 1}, {4, 6}}},
	}
	for _, c := range cases {
		got := EventsOf(bools(c.in))
		if len(got) != len(c.want) {
			t.Errorf("EventsOf(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("EventsOf(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestEventFrames(t *testing.T) {
	if (Event{3, 7}).Frames() != 5 {
		t.Error("Frames wrong")
	}
}

func TestDuration(t *testing.T) {
	in := bools("0111001111100")
	out, events := Duration(in, 4)
	want := bools("0000001111100")
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Duration mismatch at %d: %v", i, out)
		}
	}
	if len(events) != 1 || events[0] != (Event{6, 10}) {
		t.Errorf("events = %v", events)
	}
	// minFrames below 1 is clamped.
	out2, _ := Duration(bools("10"), 0)
	if !out2[0] || out2[1] {
		t.Error("clamped Duration wrong")
	}
}

func TestSequence(t *testing.T) {
	first := bools("0110000000")
	second := bools("0000011000")
	// Gap between end of first (2) and start of second (5) is 3.
	out, events := Sequence(first, second, 3)
	if len(events) != 1 || events[0] != (Event{1, 6}) {
		t.Fatalf("events = %v", events)
	}
	for i := 1; i <= 6; i++ {
		if !out[i] {
			t.Errorf("out[%d] should be true", i)
		}
	}
	if out[0] || out[7] {
		t.Error("span leaked")
	}
	// Window too small: no match.
	_, events2 := Sequence(first, second, 2)
	if len(events2) != 0 {
		t.Errorf("window-2 events = %v", events2)
	}
	// Overlapping events do not count as sequential.
	_, events3 := Sequence(bools("0110"), bools("0110"), 5)
	if len(events3) != 0 {
		t.Errorf("overlap events = %v", events3)
	}
	// Second before first does not match.
	_, events4 := Sequence(bools("0001"), bools("1000"), 5)
	if len(events4) != 0 {
		t.Errorf("reversed events = %v", events4)
	}
}

func TestSequenceLengthMismatch(t *testing.T) {
	out, events := Sequence(bools("1"), bools("0001"), 5)
	if len(out) != 4 {
		t.Fatalf("out len = %d", len(out))
	}
	if len(events) != 1 || events[0] != (Event{0, 3}) {
		t.Errorf("events = %v", events)
	}
}

// Property: Duration output is always a subset of its input, and every
// returned event is at least minFrames long.
func TestDurationSubsetProperty(t *testing.T) {
	rng := sim.NewRNG(11)
	f := func() bool {
		n := rng.Intn(50) + 1
		in := make([]bool, n)
		for i := range in {
			in[i] = rng.Bool(0.5)
		}
		minFrames := rng.Intn(6) + 1
		out, events := Duration(in, minFrames)
		for i := range out {
			if out[i] && !in[i] {
				return false
			}
		}
		for _, ev := range events {
			if ev.Frames() < minFrames {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: EventsOf partitions the true positions exactly.
func TestEventsOfPartitionProperty(t *testing.T) {
	rng := sim.NewRNG(12)
	f := func() bool {
		n := rng.Intn(60)
		in := make([]bool, n)
		trueCount := 0
		for i := range in {
			in[i] = rng.Bool(0.4)
			if in[i] {
				trueCount++
			}
		}
		events := EventsOf(in)
		covered := 0
		prevEnd := -2
		for _, ev := range events {
			if ev.Start <= prevEnd+1 && prevEnd >= 0 {
				return false // events must be separated by a gap
			}
			for i := ev.Start; i <= ev.End; i++ {
				if !in[i] {
					return false
				}
				covered++
			}
			prevEnd = ev.End
		}
		return covered == trueCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistoryWindow(t *testing.T) {
	w := newHistoryWindow(3)
	w.push(0, "a")
	w.push(1, "b")
	w.push(2, "c")
	w.push(3, "d") // evicts "a"
	got := w.last(3)
	if len(got) != 3 || got[0] != "b" || got[2] != "d" {
		t.Errorf("last(3) = %v", got)
	}
	if got := w.last(10); len(got) != 3 {
		t.Errorf("over-length last = %v", got)
	}
	// Same-frame push overwrites.
	w.push(3, "D")
	got = w.last(1)
	if got[0] != "D" {
		t.Errorf("same-frame overwrite failed: %v", got)
	}
}

func TestMemoStore(t *testing.T) {
	m := NewMemoStore()
	if _, ok := m.Get("car", "color", 1); ok {
		t.Error("empty store hit")
	}
	m.Put("car", "color", 1, "red")
	v, ok := m.Get("car", "color", 1)
	if !ok || v != "red" {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if _, ok := m.Get("car", "color", 2); ok {
		t.Error("wrong track hit")
	}
	hits, misses := m.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d, %d", hits, misses)
	}
}

func TestSharedCacheLabels(t *testing.T) {
	c := NewSharedCache()
	box := boxAt(10, 20)
	computed := 0
	label := func(c *SharedCache, frame, truthID int, v string) any {
		t.Helper()
		got, err := c.DoLabel("m", frame, box, truthID, func() (any, error) {
			computed++
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if v := label(c, 5, 1, "red"); v != "red" || computed != 1 {
		t.Errorf("empty cache: %v after %d computes", v, computed)
	}
	if v := label(c, 5, 1, "stale"); v != "red" || computed != 1 {
		t.Errorf("cached label = %v after %d computes", v, computed)
	}
	if v := label(c, 6, 1, "blue"); v != "blue" {
		t.Errorf("wrong frame hit: %v", v)
	}
	if v := label(c, 5, 2, "green"); v != "green" {
		t.Errorf("wrong object hit: labels must be per-object: %v", v)
	}
	// A nil cache computes every time and must not panic.
	var nilCache *SharedCache
	before := computed
	label(nilCache, 5, 1, "x")
	if v := label(nilCache, 5, 1, "y"); v != "y" || computed != before+2 {
		t.Errorf("nil cache cached: %v after %d computes", v, computed-before)
	}
}
