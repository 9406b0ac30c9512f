package netsim

import (
	"hpn/internal/inband"
	"hpn/internal/topo"
)

// EnableInband starts in-band path telemetry: every flow's path is walked
// with hash-decision observation, per-hop bandwidth and queue-residency
// accumulators are integrated alongside the fluid model, and each path
// generation (initial route, then one per reroute) is flushed into the
// returned collector on reroute, completion or abort. max bounds the
// retained record count (0 = unbounded). Call before injecting traffic;
// flows routed earlier carry no hop state and are not recorded. If
// telemetry is attached the collector is also exposed as the "inband.tsv"
// and "inband.json" artifact exporters. Idempotent: repeated calls return
// the same collector.
func (s *Sim) EnableInband(max int) *inband.Collector {
	if s.inband != nil {
		return s.inband
	}
	s.inband = inband.NewCollector(s.Top, max)
	s.inband.AttachTracer(s.Trace)
	s.ibDemand = make([]float64, len(s.Top.Links))
	s.ibCap = make([]float64, len(s.Top.Links))
	s.ibQueue = make([]float64, len(s.Top.Links))
	s.ibQStep = make([]float64, len(s.Top.Links))
	s.ibLiveSet = make([]bool, len(s.Top.Links))
	// The live-link worklist is seeded from the links recompute rebuilds:
	// rebuild everything once so links of clean components join it too.
	s.markAllDirty()
	s.registerInbandExporters()
	return s.inband
}

// Inband returns the collector, or nil while in-band telemetry is off.
func (s *Sim) Inband() *inband.Collector { return s.inband }

// registerInbandExporters exposes the per-hop artifacts through the
// telemetry registry, next to the flow log.
func (s *Sim) registerInbandExporters() {
	if s.Reg == nil || s.inband == nil {
		return
	}
	s.Reg.RegisterExporter(s.MetricsPrefix+"inband.tsv", s.inband.WriteTSV)
	s.Reg.RegisterExporter(s.MetricsPrefix+"inband.json", s.inband.WriteJSON)
	// Surface collector truncation: a capped collector silently under-reports
	// otherwise, and hpnview reads the dump as complete coverage.
	s.Reg.Gauge(s.MetricsPrefix+"netsim_inband_dropped_records",
		"in-band per-hop records discarded past the collector cap",
		func() float64 { return float64(s.inband.Dropped()) })
}

// inbandState returns the flow's lazily-allocated in-band state. Only
// called on paths already gated on s.inband != nil.
func (f *Flow) inbandState() *flowInband {
	if f.ib == nil {
		f.ib = &flowInband{}
	}
	return f.ib
}

// inbandFlush closes the flow's current path generation: accumulated
// per-hop attribution is emitted as records and the generation counter
// advances. No-op when in-band telemetry is off or the flow has no hops
// (e.g. it never obtained a path).
func (s *Sim) inbandFlush(f *Flow) {
	if s.inband == nil || f.ib == nil || len(f.ib.hops) == 0 {
		return
	}
	ib := f.ib
	s.inband.FlushFlow(f.ID, ib.epoch, f.Tuple.Word(), int64(ib.since), int64(s.Eng.Now()),
		ib.hops, ib.hopBits, ib.hopQBS)
	ib.epoch++
	ib.hops = ib.hops[:0]
	ib.hopBits = ib.hopBits[:0]
	ib.hopQBS = ib.hopQBS[:0]
}

// inbandOpen starts a new path generation for a freshly (re)routed flow:
// hop accumulators are sized to the new path and zeroed. ib.hops was
// filled by the PathObserved callback during routing.
func (s *Sim) inbandOpen(f *Flow) {
	if s.inband == nil {
		return
	}
	ib := f.inbandState()
	ib.since = s.Eng.Now()
	ib.hopBits = append(ib.hopBits[:0], make([]float64, len(f.Path))...)
	ib.hopQBS = append(ib.hopQBS[:0], make([]float64, len(f.Path))...)
}

// inbandRefresh snapshots the allocator's per-link offered demand and
// capacity for queue integration, and maintains the live-link worklist
// (links carrying active flows, plus links still draining queue). Called
// from recompute after the allocation settles. Links newly carrying flows
// can only be in the rebuilt dirty region (links of clean components were
// in use, hence live, at the previous refresh), so scanning its touched
// links appends them in the same order a scan over every in-use link would.
func (s *Sim) inbandRefresh() {
	for _, lk := range s.touched {
		if !s.ibLiveSet[lk] {
			s.ibLiveSet[lk] = true
			s.ibLive = append(s.ibLive, lk)
		}
	}
	kept := s.ibLive[:0]
	for _, lk := range s.ibLive {
		if s.linkComp[lk] >= 0 {
			s.ibDemand[lk] = s.demand[lk]
			s.ibCap[lk] = s.Top.Link(lk).CapBps
			if !s.Top.LinkUsable(lk) {
				s.ibCap[lk] = 0
			}
		} else {
			// No active flow touches the link anymore: it only drains.
			s.ibDemand[lk] = 0
			s.ibCap[lk] = s.Top.Link(lk).CapBps
			if s.ibQueue[lk] <= 0 {
				s.ibLiveSet[lk] = false
				s.ibQStep[lk] = 0
				continue
			}
		}
		kept = append(kept, lk)
	}
	s.ibLive = kept
}

// inbandIntegrate advances the per-link queue proxies and per-flow hop
// accumulators across an interval of constant allocation. The queue model
// matches LinkProbe.integrate (grow at excess offered demand, drain at
// spare capacity, clamp to the port buffer); the per-hop residency uses
// the trapezoid of the queue over the step.
func (s *Sim) inbandIntegrate(dt float64) {
	for _, lk := range s.ibLive {
		q0 := s.ibQueue[lk]
		q1 := q0 + (s.ibDemand[lk]-s.ibCap[lk])/8*dt
		if q1 < 0 {
			q1 = 0
		}
		if q1 > s.PortBufferBytes {
			q1 = s.PortBufferBytes
		}
		s.ibQueue[lk] = q1
		s.ibQStep[lk] = (q0 + q1) / 2 * dt
	}
	for _, f := range s.active {
		if f.Rate <= 0 || f.ib == nil || len(f.ib.hopBits) != len(f.Path) {
			continue
		}
		ib := f.ib
		for i, lk := range f.Path {
			ib.hopBits[i] += f.Rate * dt
			if s.ibLiveSet[lk] {
				ib.hopQBS[i] += s.ibQStep[lk]
			}
		}
	}
}

// InbandQueueBytes exposes the in-band queue proxy of one link (0 when
// in-band telemetry is off) — test and analysis hook.
func (s *Sim) InbandQueueBytes(l topo.LinkID) float64 {
	if s.inband == nil {
		return 0
	}
	return s.ibQueue[l]
}
