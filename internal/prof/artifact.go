package prof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// PhaseStat is one phase's merged accumulators: the row format of the
// prof.tsv/prof.json artifacts. Count is deterministic (a pure function of
// the simulated run); WallNS and Allocs are host measurements and are
// nondeterministic by nature — which is why these artifacts live outside
// the golden byte-identical set.
type PhaseStat struct {
	Name   string `json:"name"`
	Help   string `json:"help,omitempty"`
	Count  int64  `json:"count"`
	WallNS int64  `json:"wall_ns"`
	Allocs int64  `json:"allocs,omitempty"`
}

// Profile is the prof.json document: one run's phase breakdown plus the
// GOMAXPROCS it ran under, which the comparator surfaces so profiles
// taken under different settings are not compared blindly.
type Profile struct {
	GoMaxProcs int         `json:"gomaxprocs"`
	Phases     []PhaseStat `json:"phases"`
}

// Profile snapshots the profiler into an exportable document. Nil-safe.
func (p *Profiler) Profile() *Profile {
	return &Profile{GoMaxProcs: runtime.GOMAXPROCS(0), Phases: p.Snapshot()}
}

// WriteTSV writes the phase table, sorted by name, zero-count phases
// omitted. Columns: phase, count, wall_ns, wall_ms, allocs.
func (p *Profiler) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "phase\tcount\twall_ns\twall_ms\tallocs")
	for _, st := range p.Snapshot() {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%.3f\t%d\n",
			st.Name, st.Count, st.WallNS, float64(st.WallNS)/1e6, st.Allocs)
	}
	return bw.Flush()
}

// WriteJSON writes the Profile document (see ParseProfile).
func (p *Profiler) WriteJSON(w io.Writer) error { return p.Profile().WriteJSON(w) }

// WriteJSON writes the document in the prof.json format ParseProfile
// reads.
func (pr *Profile) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(pr, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ParseProfile reads a prof.json document written by WriteJSON.
func ParseProfile(r io.Reader) (*Profile, error) {
	var prof Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&prof); err != nil {
		return nil, err
	}
	if len(prof.Phases) == 0 {
		return nil, fmt.Errorf("profile has no phases")
	}
	return &prof, nil
}
