// Package topo models data-center network topologies: the graph of hosts,
// ToR/Aggregation/Core switches and the directed capacity links between
// them, together with the placement metadata HPN's design hinges on
// (segments, pods, planes, rails, dual-ToR sets).
//
// Builders are provided for the architectures the paper discusses:
//
//   - HPN: the paper's 2-tier, dual-plane, dual-ToR, rail-optimized backend
//     (§3, §5, §6), with optional Core tier (§7) and ablation switches
//     (single-plane, single-ToR, no rail optimization).
//   - DCN+: Alibaba's previous-generation 3-tier Clos training network
//     (Appendix C), the paper's evaluation baseline.
//   - Frontend: the classic 3-tier 1:1 frontend network (§8).
//
// Scale calculators reproduce Tables 1, 2 and 4 directly from first
// principles (port counts and oversubscription ratios).
package topo

import (
	"fmt"
	"sync/atomic"
)

// NodeID indexes a node within a Topology.
type NodeID int32

// LinkID indexes a directed link within a Topology.
type LinkID int32

// None marks an absent node or link.
const None = -1

// Kind classifies a node by tier.
type Kind uint8

// Node kinds, from the edge toward the core.
const (
	KindHost Kind = iota
	KindToR
	KindAgg
	KindCore
)

func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindToR:
		return "tor"
	case KindAgg:
		return "agg"
	case KindCore:
		return "core"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is a host or switch. Location fields are -1 when not applicable.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string

	Pod     int // pod index (hosts, ToRs, Aggs); -1 for cores shared by pods
	Segment int // segment within pod (hosts, ToRs)
	Plane   int // forwarding plane (ToRs, Aggs, Cores); 0 when single-plane
	Rail    int // rail served (ToRs in rail-optimized fabrics)
	Index   int // ordinal within (kind, location)

	// HashSeed parameterizes this switch's ECMP hash. Builders either give
	// every switch the same seed (legacy fabrics; enables hash polarization)
	// or a unique one.
	HashSeed uint64
	// PerPortHash marks Core switches that use the §7 per-(ingress-port,
	// dst-pod) hash instead of the 5-tuple hash.
	PerPortHash bool

	// Up is false while the whole node (e.g. a crashed ToR) is down.
	Up bool

	Uplinks   []LinkID // links toward the core
	Downlinks []LinkID // links toward the hosts
}

// Link is one direction of a cable. Links are created in pairs; Reverse
// names the opposite direction.
type Link struct {
	ID       LinkID
	From, To NodeID
	Reverse  LinkID
	// CapBps is the capacity in bits per second.
	CapBps float64
	// FromPort / ToPort are the physical port indices on each end;
	// Core per-port hashing keys on ToPort (the ingress port).
	FromPort, ToPort int
	// Plane tags fabric links with their forwarding plane.
	Plane int
	// Up is false while the link is failed.
	Up bool
}

// NIC is one backend network card of a host: one rail, one or two ports.
// Ports holds the host->ToR access LinkIDs (len 1 under single-ToR, len 2
// under dual-ToR, index = plane).
type NIC struct {
	Rail  int
	Ports []LinkID
}

// Host is a GPU server: 8 GPUs, one backend NIC per GPU (rail), and its
// location in the fabric.
type Host struct {
	Node    NodeID
	Pod     int
	Segment int
	Index   int // host index within segment
	Backup  bool
	NICs    []NIC
}

// GPUs returns the number of GPUs on the host (one per backend NIC).
func (h *Host) GPUs() int { return len(h.NICs) }

// Topology is a complete fabric. Build one with a builder, never by hand.
type Topology struct {
	Arch   string // "hpn", "dcn+", ...
	Planes int    // number of forwarding planes (1 or 2)
	Pods   int

	Nodes []*Node
	Links []*Link
	Hosts []*Host // index = global host ID

	// torIndex maps (pod, segment, rail, plane) -> ToR node, for rail-
	// optimized fabrics; non-rail fabrics index with rail=0.
	torIndex map[[4]int]NodeID
	// aggIndex maps (pod, plane) -> agg nodes.
	aggIndex map[[2]int][]NodeID
	// coreIndex maps plane -> core nodes.
	coreIndex map[int][]NodeID
	// attachedHost maps ToR -> set of (host, nic) reachable by a downlink.
	hostOfLink map[LinkID]HostPort

	// usable caches LinkUsable per link (link up AND both endpoint nodes
	// up), maintained by connect and the Set*State mutators.
	usable []bool
	// stateGen counts Set*State calls. Several simulators may share one
	// topology (a sharded ensemble runs one per domain) and each caches
	// state derived from link usability, so each compares this counter
	// with the value it last saw to notice changes made by the others.
	// Atomic because domains mutate their own links concurrently.
	stateGen atomic.Uint64
}

// HostPort names one NIC port of one host.
type HostPort struct {
	Host int
	NIC  int
	Port int // plane / port index within the NIC
}

// New returns an empty topology shell used by builders.
func New(arch string, planes, pods int) *Topology {
	return &Topology{
		Arch:       arch,
		Planes:     planes,
		Pods:       pods,
		torIndex:   map[[4]int]NodeID{},
		aggIndex:   map[[2]int][]NodeID{},
		coreIndex:  map[int][]NodeID{},
		hostOfLink: map[LinkID]HostPort{},
	}
}

// AddNode appends a node and returns its ID.
func (t *Topology) AddNode(n Node) NodeID {
	n.ID = NodeID(len(t.Nodes))
	n.Up = true
	c := n
	t.Nodes = append(t.Nodes, &c)
	return c.ID
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node { return t.Nodes[id] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) *Link { return t.Links[id] }

// nextPort allocates the next port number on a node.
func (t *Topology) nextPort(counts map[NodeID]int, n NodeID) int {
	p := counts[n]
	counts[n] = p + 1
	return p
}

// connect creates the two directed links of a cable between lo (closer to
// hosts) and hi (closer to core) and registers them as down/up links.
// It returns the upward link (lo->hi).
func (t *Topology) connect(portCounts map[NodeID]int, lo, hi NodeID, capBps float64, plane int) LinkID {
	loPort := t.nextPort(portCounts, lo)
	hiPort := t.nextPort(portCounts, hi)
	up := &Link{
		ID: LinkID(len(t.Links)), From: lo, To: hi,
		CapBps: capBps, FromPort: loPort, ToPort: hiPort, Plane: plane, Up: true,
	}
	t.Links = append(t.Links, up)
	down := &Link{
		ID: LinkID(len(t.Links)), From: hi, To: lo,
		CapBps: capBps, FromPort: hiPort, ToPort: loPort, Plane: plane, Up: true,
	}
	t.Links = append(t.Links, down)
	t.usable = append(t.usable, true, true)
	up.Reverse = down.ID
	down.Reverse = up.ID

	t.Nodes[lo].Uplinks = append(t.Nodes[lo].Uplinks, up.ID)
	t.Nodes[hi].Downlinks = append(t.Nodes[hi].Downlinks, down.ID)
	return up.ID
}

// ToR returns the ToR node for (pod, segment, rail, plane), or None.
func (t *Topology) ToR(pod, segment, rail, plane int) NodeID {
	if id, ok := t.torIndex[[4]int{pod, segment, rail, plane}]; ok {
		return id
	}
	return None
}

// Aggs returns the aggregation switches of (pod, plane).
func (t *Topology) Aggs(pod, plane int) []NodeID { return t.aggIndex[[2]int{pod, plane}] }

// Cores returns the core switches of a plane.
func (t *Topology) Cores(plane int) []NodeID { return t.coreIndex[plane] }

// HostPortOf resolves a ToR downlink (or host uplink reverse) to the host
// NIC port it serves; ok is false for fabric-internal links.
func (t *Topology) HostPortOf(l LinkID) (HostPort, bool) {
	hp, ok := t.hostOfLink[l]
	return hp, ok
}

// AccessLink returns the host->ToR link for a host's NIC port.
func (t *Topology) AccessLink(host, nic, port int) LinkID {
	return t.Hosts[host].NICs[nic].Ports[port]
}

// AccessUp reports whether the given access link and its ToR are healthy.
func (t *Topology) AccessUp(host, nic, port int) bool {
	l := t.Link(t.AccessLink(host, nic, port))
	return l.Up && t.Node(l.To).Up
}

// TotalGPUs returns the number of GPUs across all hosts (backup included
// unless activeOnly).
func (t *Topology) TotalGPUs(activeOnly bool) int {
	n := 0
	for _, h := range t.Hosts {
		if activeOnly && h.Backup {
			continue
		}
		n += h.GPUs()
	}
	return n
}

// SetLinkState marks one direction of a link (and typically its reverse,
// via SetCableState) up or down.
func (t *Topology) SetLinkState(id LinkID, up bool) {
	t.Links[id].Up = up
	t.refreshUsable(id)
	t.stateGen.Add(1)
}

// SetCableState sets both directions of a cable.
func (t *Topology) SetCableState(id LinkID, up bool) {
	t.Links[id].Up = up
	t.Links[t.Links[id].Reverse].Up = up
	t.refreshUsable(id)
	t.refreshUsable(t.Links[id].Reverse)
	t.stateGen.Add(1)
}

// SetNodeState marks a node (and implicitly all its links) up or down.
// Links keep their own state; routing treats a link as usable only when the
// link and both endpoints are up.
func (t *Topology) SetNodeState(id NodeID, up bool) {
	t.Nodes[id].Up = up
	// A node flip changes the usability of every link touching it; node
	// events are rare (failure injection), so a full refresh is fine.
	for _, l := range t.Links {
		t.refreshUsable(l.ID)
	}
	t.stateGen.Add(1)
}

// StateGen returns a counter that grows with every link or node state
// change. Equal values mean no Set*State call happened in between.
func (t *Topology) StateGen() uint64 { return t.stateGen.Load() }

// LinkUsable reports whether a link can carry traffic: link up, both ends
// up. It is the allocator's and router's innermost predicate, so the
// three-way state is cached per link in a flat array maintained by the
// Set*State mutators; chasing the Link and two Node pointers on every call
// showed up in profiles.
func (t *Topology) LinkUsable(id LinkID) bool {
	if int(id) < len(t.usable) {
		return t.usable[id]
	}
	l := t.Links[id]
	return l.Up && t.Nodes[l.From].Up && t.Nodes[l.To].Up
}

// refreshUsable recomputes the cached usability of one link, growing the
// cache to cover the topology on first use.
func (t *Topology) refreshUsable(id LinkID) {
	for len(t.usable) < len(t.Links) {
		t.usable = append(t.usable, true)
	}
	l := t.Links[id]
	t.usable[id] = l.Up && t.Nodes[l.From].Up && t.Nodes[l.To].Up
}

// Counts summarizes the inventory, for the topology inspector and tests.
type Counts struct {
	Hosts, GPUs, ToRs, Aggs, Cores int
	Cables                         int // bidirectional cables (links/2)
}

// Count tallies the topology inventory.
func (t *Topology) Count() Counts {
	var c Counts
	for _, n := range t.Nodes {
		switch n.Kind {
		case KindHost:
			c.Hosts++
		case KindToR:
			c.ToRs++
		case KindAgg:
			c.Aggs++
		case KindCore:
			c.Cores++
		}
	}
	c.GPUs = t.TotalGPUs(false)
	c.Cables = len(t.Links) / 2
	return c
}
