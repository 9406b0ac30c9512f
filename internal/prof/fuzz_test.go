package prof

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseProfile checks that ParseProfile never panics and that every
// document it accepts survives a write and a second parse unchanged.
func FuzzParseProfile(f *testing.F) {
	p := New()
	p.Phase("netsim/fill", "progressive filling").Add(12)
	run := p.PhaseAlloc("sim/run", "event loop <&>")
	run.End(run.Begin())
	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add([]byte(`{"gomaxprocs":1,"phases":[null,{"name":"\ud800","count":-1}]} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		prof, err := ParseProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := prof.WriteJSON(&out); err != nil {
			t.Fatalf("writing a parsed profile: %v", err)
		}
		again, err := ParseProfile(&out)
		if err != nil {
			t.Fatalf("written profile does not parse: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, prof) {
			t.Fatalf("round trip changed the profile:\n got  %+v\n want %+v", again, prof)
		}
	})
}
