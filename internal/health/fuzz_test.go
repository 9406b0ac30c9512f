package health

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// writeTimeline renders incidents and iteration reports through the
// artifact writer.
func writeTimeline(t testing.TB, incs []Incident, iters []IterationReport) []byte {
	t.Helper()
	m := &Monitor{incidents: incs, iters: iters}
	var b bytes.Buffer
	if err := m.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzParseTSV checks that ParseTSV never panics and that every timeline
// it accepts survives a write and a second parse unchanged. Values are
// compared through %#v so NaN fields compare equal to themselves.
func FuzzParseTSV(f *testing.F) {
	f.Add(writeTimeline(f, nil, nil))
	f.Add(writeTimeline(f, []Incident{
		{ID: 1, Kind: KindFlap, Subject: "tor0>agg1", Start: 50, End: 900, Events: 6, Peak: 3, Detail: "6 transitions in 10s"},
		{ID: 2, Kind: KindStall, Subject: "flow 7", Start: 70, Open: true, Events: 1, Peak: math.Inf(1)},
	}, []IterationReport{
		{Iter: 1, Start: 0, End: 1000, CommS: 0.5},
		{Iter: 2, Start: 1000, End: 2100, CommS: 0.75, BaselineS: 0.5, DeltaFrac: 0.5, Regressed: true, Reroutes: 2, Causes: []int{1, 2}},
		{Iter: 3, Start: 2100, End: 3000, CommS: math.NaN()},
	}))
	// Duplicate IDs and iteration numbers out of time order: the parser's
	// sort must agree with the writer's, or a round trip reorders them.
	f.Add([]byte(tsvHeader + "\n" +
		"incident\t1\tstall\ta\t100\t200\tfalse\t1\t1\t-\t-1\t0\t0\t0\tfalse\t-1\t-\n" +
		"incident\t1\tstall\tb\t50\t60\tfalse\t1\t1\t-\t-1\t0\t0\t0\tfalse\t-1\t-\n" +
		"iteration\t-1\t-\t-\t300\t400\tfalse\t-1\t0\t-\t4\t1\t0\t0\tfalse\t0\t-\n" +
		"iteration\t-1\t-\t-\t10\t20\tfalse\t-1\t0\t-\t4\t2\t0\t0\tfalse\t0\t-\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		incs, iters, err := ParseTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		incs2, iters2, err := ParseTSV(bytes.NewReader(writeTimeline(t, incs, iters)))
		if err != nil {
			t.Fatalf("written timeline does not parse: %v", err)
		}
		if got, want := fmt.Sprintf("%#v %#v", incs2, iters2), fmt.Sprintf("%#v %#v", incs, iters); got != want {
			t.Fatalf("round trip changed the timeline:\n got  %s\n want %s", got, want)
		}
	})
}
