package hpn

import (
	"fmt"
	"time"
)

func init() {
	register("multipod", "Sharded event loop: multi-pod training on per-pod engines", runMultiPod)
}

// runMultiPod drives a multi-pod HPN fabric — one training job per pod
// plus the cross-pod gradient exchange on the global domain — through the
// windowed coordinator, and reports the window structure and the host
// process's simulated-flow throughput.
func runMultiPod(s Scale) (*Report, error) {
	r := &Report{ID: "multipod", Title: "Sharded event loop: conservative-window multi-pod simulation"}
	pods, hostsPerPod, iters := 4, 8, 12
	if s == ScaleFull {
		pods, hostsPerPod, iters = 8, 16, 40
	}
	sc, err := NewShardedHPN(MultiPodHPN(pods, 1, hostsPerPod, 4), nil)
	if err != nil {
		return nil, err
	}
	st, err := NewShardedTrainer(sc, LLaMa13B, Parallelism{TP: 8, PP: 1, DP: hostsPerPod})
	if err != nil {
		return nil, err
	}
	if err := st.Start(iters); err != nil {
		return nil, err
	}
	// Wall-clock feeds only the host flows/sec row of the report.
	start := time.Now() //hpnlint:allow wallclock -- host throughput row, never simulator state
	sc.Run()
	wall := time.Since(start).Seconds() //hpnlint:allow wallclock -- host throughput row, never simulator state
	if st.Iterations() != iters {
		return nil, fmt.Errorf("hpn: multipod training stalled at %d/%d", st.Iterations(), iters)
	}
	if st.FirstErr != nil {
		return nil, st.FirstErr
	}
	flows := sc.Global.Net.CompletedFlows
	for _, pc := range sc.Pods {
		flows += pc.Net.CompletedFlows
	}
	flowsPerSec := 0.0
	if wall > 0 {
		flowsPerSec = float64(flows) / wall
	}
	r.AddTable(Table{
		Title:  fmt.Sprintf("LLaMa-13B, %d pods x %d hosts, %d iterations", pods, hostsPerPod, iters),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"wall time (s)", fmtF(wall)},
			{"simulated flows", fmtF(float64(flows))},
			{"simulated flows/sec (host)", fmtF(flowsPerSec)},
			{"samples/s (simulated)", fmtF(st.Trainers[0].MeanSamplesPerSecond())},
			{"simulated time (s)", fmtF(sc.Global.Eng.Now().Seconds())},
			{"conservative windows", fmtF(float64(sc.Coord.Windows))},
			{"cross-domain posts", fmtF(float64(sc.Coord.Exchanged))},
		},
	})
	r.AddClaim("every iteration crossed the global barrier",
		fmt.Sprintf("%d cross-pod rounds", iters), fmt.Sprintf("%d", st.Rounds), st.Rounds == iters)
	return r, nil
}
