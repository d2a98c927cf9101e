package sdn

import (
	"fmt"
	"math/bits"
	"sort"
)

// Switch is one forwarding element: a numbered switch with ports wired to
// neighbours and a prioritized, tagged flow table.
type Switch struct {
	ID     string
	Num    int64 // numeric ID used by controller programs (Swi)
	ports  map[int]string
	portOf map[string]int // reverse of ports: neighbour -> port

	// idx is the flow table: a tuple-space index that stores every
	// installed entry and answers every lookup (see flowindex.go).
	idx  *flowIndex
	mcur []idxCursor // reusable merge cursors for lookups
}

// NewSwitch creates a switch.
func NewSwitch(id string, num int64) *Switch {
	return &Switch{ID: id, Num: num, ports: make(map[int]string), portOf: make(map[string]int), idx: newFlowIndex()}
}

// Wire connects a port to a neighbour node (switch or host) by ID.
func (s *Switch) Wire(port int, neighbour string) {
	if old, ok := s.ports[port]; ok {
		delete(s.portOf, old)
	}
	s.ports[port] = neighbour
	s.portOf[neighbour] = port
}

// PortTo returns the port leading to a neighbour, or -1.
func (s *Switch) PortTo(neighbour string) int {
	if p, ok := s.portOf[neighbour]; ok {
		return p
	}
	return -1
}

// Neighbour returns the node wired to a port ("" if none).
func (s *Switch) Neighbour(port int) string { return s.ports[port] }

// Ports returns the wired ports in ascending order.
func (s *Switch) Ports() []int {
	out := make([]int, 0, len(s.ports))
	for p := range s.ports {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Install adds a flow entry. Re-installing an entry whose tag set is
// already covered by an identical earlier entry is a no-op; otherwise the
// entry is added after every earlier entry of equal priority, so that
// ties resolve by installation order exactly as they would in a
// per-candidate sequential run. (Merging tag sets into earlier entries
// would silently promote a later derivation ahead of the entry that
// should win the tie.)
func (s *Switch) Install(e FlowEntry) { s.idx.install(e) }

// Host is an end host with an IP; it counts the packets it receives per
// backtesting tag, which is the raw material for the §4.3 metrics.
type Host struct {
	ID     string
	IP     int64
	Switch string // attachment switch ID

	// Received counts delivered packets per tag bit index (0..63).
	Received [64]int64
	// ByPort counts delivered packets per (tag, destination port) for
	// service-level checks (e.g. "H2 receives HTTP requests").
	ByPort map[int64]*[64]int64
	// BySrc counts delivered packets per (tag, source IP) for
	// client-level checks (e.g. "the server receives H1's queries").
	BySrc map[int64]*[64]int64
}

// NewHost creates a host.
func NewHost(id string, ip int64, sw string) *Host {
	return &Host{
		ID: id, IP: ip, Switch: sw,
		ByPort: make(map[int64]*[64]int64),
		BySrc:  make(map[int64]*[64]int64),
	}
}

// deliver records a packet delivery for every tag in the packet's set.
func (h *Host) deliver(p Packet) {
	pp := h.ByPort[p.DstPort]
	if pp == nil {
		pp = &[64]int64{}
		h.ByPort[p.DstPort] = pp
	}
	ps := h.BySrc[p.SrcIP]
	if ps == nil {
		ps = &[64]int64{}
		h.BySrc[p.SrcIP] = ps
	}
	for t := p.Tags; t != 0; t &= t - 1 {
		b := bits.TrailingZeros64(t)
		h.Received[b]++
		pp[b]++
		ps[b]++
	}
}

// ReceivedFor returns the host's delivered-packet count under one tag.
func (h *Host) ReceivedFor(tag int) int64 { return h.Received[tag] }

// PortCountFor returns deliveries to a destination port under one tag.
func (h *Host) PortCountFor(port int64, tag int) int64 {
	if pp := h.ByPort[port]; pp != nil {
		return pp[tag]
	}
	return 0
}

// SrcCountFor returns deliveries from a source IP under one tag.
func (h *Host) SrcCountFor(src int64, tag int) int64 {
	if ps := h.BySrc[src]; ps != nil {
		return ps[tag]
	}
	return 0
}

// Controller handles PacketIn events: a switch had no matching flow entry
// for (part of) a packet's tag set.
type Controller interface {
	PacketIn(net *Network, sw *Switch, inPort int64, pkt Packet)
}

// PacketCapture observes every packet injected at a host — the hook a
// durable trace store attaches to record live traffic as §5.4 log
// records for later replay. Implementations must tolerate being called
// from whatever goroutine drives injection.
type PacketCapture interface {
	CapturePacket(srcHost string, pkt Packet)
}

// Network is the simulated data plane: switches, hosts, and the controller.
type Network struct {
	Switches map[string]*Switch
	Hosts    map[string]*Host
	Ctrl     Controller

	// Capture, when set, observes every injected packet before
	// forwarding — the attachment point for durable trace recording.
	Capture PacketCapture

	// MaxHops bounds forwarding loops (default 64).
	MaxHops int

	// hostIDCache is the sorted host-ID list Distribution reads, rebuilt
	// whenever the host count changes; byNum finds switches by numeric ID
	// in constant time for the controller's derived-tuple application.
	hostIDCache []string
	byNum       map[int64]*Switch

	// Stats.
	Delivered int64
	Dropped   int64
	Missed    int64 // packets (or packet forks) that died on a table miss
	PacketIns int64
	Hops      int64
	// PacketInsByTag counts controller PacketIns per backtesting tag,
	// the controller-load metric used to reject repairs that degenerate
	// into per-packet forwarding (§4.3 operator metrics).
	PacketInsByTag [64]int64
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		Switches: make(map[string]*Switch),
		Hosts:    make(map[string]*Host),
		MaxHops:  64,
	}
}

// AddSwitch registers a switch.
func (n *Network) AddSwitch(s *Switch) {
	n.Switches[s.ID] = s
	if n.byNum == nil {
		n.byNum = make(map[int64]*Switch)
	}
	n.byNum[s.Num] = s
}

// SwitchByNum returns the switch with the given numeric ID (the Swi value
// controller programs use), or nil. Switches registered via AddSwitch are
// found in constant time; direct map writes fall back to a scan.
func (n *Network) SwitchByNum(num int64) *Switch {
	if s, ok := n.byNum[num]; ok && n.Switches[s.ID] == s {
		return s
	}
	for _, s := range n.Switches {
		if s.Num == num {
			return s
		}
	}
	return nil
}

// AddHost registers a host and wires it to its switch's next free port.
func (n *Network) AddHost(h *Host) int {
	n.Hosts[h.ID] = h
	sw := n.Switches[h.Switch]
	if sw == nil {
		panic(fmt.Sprintf("sdn: host %s references unknown switch %s", h.ID, h.Switch))
	}
	port := 1
	for sw.ports[port] != "" {
		port++
	}
	sw.Wire(port, h.ID)
	return port
}

// AddHostAt registers a host on a specific switch port (scenario zones
// wire ports explicitly so controller programs can name them).
func (n *Network) AddHostAt(h *Host, port int) {
	n.Hosts[h.ID] = h
	sw := n.Switches[h.Switch]
	if sw == nil {
		panic(fmt.Sprintf("sdn: host %s references unknown switch %s", h.ID, h.Switch))
	}
	sw.Wire(port, h.ID)
}

// Link wires two switches together on their next free ports.
func (n *Network) Link(a, b string) (int, int) {
	sa, sb := n.Switches[a], n.Switches[b]
	if sa == nil || sb == nil {
		panic(fmt.Sprintf("sdn: link between unknown switches %s-%s", a, b))
	}
	pa, pb := 1, 1
	for sa.ports[pa] != "" {
		pa++
	}
	for sb.ports[pb] != "" {
		pb++
	}
	sa.Wire(pa, b)
	sb.Wire(pb, a)
	return pa, pb
}

// HostByIP finds a host by IP (nil if none).
func (n *Network) HostByIP(ip int64) *Host {
	for _, h := range n.Hosts {
		if h.IP == ip {
			return h
		}
	}
	return nil
}

// Inject introduces a packet at a host's attachment switch and forwards it
// until delivery, drop, miss, or hop exhaustion. Packets with a zero tag
// set default to tag bit 0 (the single-variant case).
func (n *Network) Inject(hostID string, pkt Packet) {
	h := n.Hosts[hostID]
	if h == nil {
		return
	}
	if n.Capture != nil {
		n.Capture.CapturePacket(hostID, pkt)
	}
	if pkt.Tags == 0 {
		pkt.Tags = 1
	}
	sw := n.Switches[h.Switch]
	inPort := int64(sw.PortTo(hostID))
	n.forward(sw, inPort, pkt, 0)
}

// SendFromSwitch emits a packet out of a switch port (the PacketOut
// primitive available to controllers).
func (n *Network) SendFromSwitch(sw *Switch, port int, pkt Packet) {
	n.emit(sw, port, pkt, 0)
}

// forward runs the match-and-forward loop at one switch.
func (n *Network) forward(sw *Switch, inPort int64, pkt Packet, hops int) {
	if hops > n.MaxHops {
		n.Dropped++
		return
	}
	n.Hops++
	var actsBuf [4]actionGroup
	acts, miss := sw.matchActions(inPort, pkt, actsBuf[:0])
	if miss != 0 {
		n.Missed++
		if n.Ctrl != nil {
			n.PacketIns++
			for t := miss; t != 0; t &= t - 1 {
				n.PacketInsByTag[bits.TrailingZeros64(t)]++
			}
			mp := pkt
			mp.Tags = miss
			n.Ctrl.PacketIn(n, sw, inPort, mp)
			// Retry the missed tags once against the (possibly) updated
			// table; OpenFlow switches would re-match the buffered packet
			// only if the controller sends a PacketOut, so the retry here
			// happens only for tags that now have entries installed via
			// an explicit PacketOut — the controller calls SendFromSwitch
			// itself. Without a PacketOut, the packet copy dies (Q4).
		}
	}
	// Deterministic per-action processing order: (kind, port) ascending.
	// Insertion sort keeps the tiny slice on the stack (a sort.Slice
	// closure would force it to the heap on every hop).
	for i := 1; i < len(acts); i++ {
		for j := i; j > 0; j-- {
			a, b := acts[j].act, acts[j-1].act
			if a.Kind < b.Kind || (a.Kind == b.Kind && a.Port < b.Port) {
				acts[j], acts[j-1] = acts[j-1], acts[j]
				continue
			}
			break
		}
	}
	for _, g := range acts {
		fp := pkt
		fp.Tags = g.tags
		switch g.act.Kind {
		case ActionDrop:
			n.Dropped++
		case ActionOutput:
			n.emit(sw, g.act.Port, fp, hops+1)
		}
	}
}

// emit sends a packet out of a switch port to whatever is wired there.
func (n *Network) emit(sw *Switch, port int, pkt Packet, hops int) {
	next := sw.Neighbour(port)
	if next == "" {
		n.Dropped++
		return
	}
	if h, ok := n.Hosts[next]; ok {
		h.deliver(pkt)
		n.Delivered++
		return
	}
	if ns, ok := n.Switches[next]; ok {
		n.forward(ns, int64(ns.PortTo(sw.ID)), pkt, hops)
		return
	}
	n.Dropped++
}

// ResetCounters zeroes delivery statistics (flow tables are kept).
func (n *Network) ResetCounters() {
	n.Delivered, n.Dropped, n.Missed, n.PacketIns, n.Hops = 0, 0, 0, 0, 0
	n.PacketInsByTag = [64]int64{}
	for _, h := range n.Hosts {
		h.Received = [64]int64{}
		h.ByPort = make(map[int64]*[64]int64)
		h.BySrc = make(map[int64]*[64]int64)
	}
}

// HostIDs returns all host IDs sorted.
func (n *Network) HostIDs() []string {
	return append([]string(nil), n.hostIDs()...)
}

// hostIDs returns the sorted-ID cache, rebuilt when hosts were added or
// removed since the last call (callers must not retain or mutate it).
func (n *Network) hostIDs() []string {
	if len(n.hostIDCache) != len(n.Hosts) {
		out := make([]string, 0, len(n.Hosts))
		for id := range n.Hosts {
			out = append(out, id)
		}
		sort.Strings(out)
		n.hostIDCache = out
	}
	return n.hostIDCache
}

// Distribution returns the per-host delivered-packet counts under one tag,
// ordered by host ID — the sample the KS test consumes (§5.3).
func (n *Network) Distribution(tag int) []int64 {
	ids := n.hostIDs()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = n.Hosts[id].ReceivedFor(tag)
	}
	return out
}
