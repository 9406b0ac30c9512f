package inband

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// writeRecords renders records through the artifact writer.
func writeRecords(t testing.TB, recs []Record) []byte {
	t.Helper()
	c := &Collector{}
	c.AppendReplayed(recs)
	var b bytes.Buffer
	if err := c.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzParseTSV checks that ParseTSV never panics and that every input it
// accepts survives a write and a second parse unchanged. Records are
// compared through %#v so NaN fields compare equal to themselves.
func FuzzParseTSV(f *testing.F) {
	f.Add(writeRecords(f, nil))
	f.Add(writeRecords(f, []Record{
		{Flow: 1, Link: 4, Name: "h0>tor0", Tier: "host-tor", EnterNS: 10, ExitNS: 90, Bits: 1.5e9, QueueByteS: 0.25},
		{Flow: 1, Seq: 1, Link: 9, Name: "tor0>agg3", Tier: "tor-agg", EnterNS: 10, ExitNS: 90,
			Bits: math.Inf(1), Hashed: true, Node: "tor0", Seed: 42, Group: 2, Bucket: 7, PerPort: true, Tuple: 1 << 63},
		{Flow: -3, Epoch: 2, Name: "", Tier: "", Bits: math.NaN(), QueueByteS: -0.0, Fallback: true, Down: true},
	}))
	f.Add([]byte(tsvHeader + "1\t0\t0\t4\ta>b\thost-tor\t0\t1\t0x1p-2\t+Inf\tT\t-\t+5\t0\t0\tfalse\t0\t1\t9\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ParseTSV(bytes.NewReader(writeRecords(t, recs)))
		if err != nil {
			t.Fatalf("written records do not parse: %v", err)
		}
		if got, want := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", recs); got != want {
			t.Fatalf("round trip changed the records:\n got  %s\n want %s", got, want)
		}
	})
}
