package sdn

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ndlog"
)

func ptr(v int64) *int64 { return &v }

func TestMatchSemantics(t *testing.T) {
	pkt := Packet{SrcIP: 10, DstIP: 20, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	cases := []struct {
		name string
		m    Match
		in   int64
		want bool
	}{
		{"wildcard", Match{}, 5, true},
		{"dst port hit", Match{DstPort: ptr(80)}, 5, true},
		{"dst port miss", Match{DstPort: ptr(53)}, 5, false},
		{"in port hit", Match{InPort: ptr(5)}, 5, true},
		{"in port miss", Match{InPort: ptr(6)}, 5, false},
		{"full hit", Match{SrcIP: ptr(10), DstIP: ptr(20), SrcPort: ptr(1000), DstPort: ptr(80), Proto: ptr(int64(ProtoTCP))}, 5, true},
		{"one field off", Match{SrcIP: ptr(10), DstIP: ptr(21)}, 5, false},
	}
	for _, c := range cases {
		if got := c.m.Matches(c.in, pkt); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

func TestSpecificityBounds(t *testing.T) {
	f := func(a, b, c, d, e, g bool) bool {
		m := Match{}
		n := 0
		if a {
			m.InPort = ptr(1)
			n++
		}
		if b {
			m.SrcIP = ptr(1)
			n++
		}
		if c {
			m.DstIP = ptr(1)
			n++
		}
		if d {
			m.SrcPort = ptr(1)
			n++
		}
		if e {
			m.DstPort = ptr(1)
			n++
		}
		if g {
			m.Proto = ptr(1)
			n++
		}
		return m.Specificity() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchStringStable(t *testing.T) {
	m := Match{DstPort: ptr(80), SrcIP: ptr(10)}
	if m.String() != "sip=10,dpt=80" {
		t.Fatalf("render = %q", m.String())
	}
	if (Match{}).String() != "*" {
		t.Fatal("wildcard render broken")
	}
}

// Match.Equal must agree exactly with the String-rendering comparison it
// replaced on the switch install path.
func TestMatchEqualAgreesWithStringEquality(t *testing.T) {
	gen := func(bits uint8, v int64) Match {
		var m Match
		if bits&1 != 0 {
			m.InPort = ptr(v)
		}
		if bits&2 != 0 {
			m.SrcIP = ptr(v + 1)
		}
		if bits&4 != 0 {
			m.DstIP = ptr(v)
		}
		if bits&8 != 0 {
			m.SrcPort = ptr(2 * v)
		}
		if bits&16 != 0 {
			m.DstPort = ptr(80)
		}
		if bits&32 != 0 {
			m.Proto = ptr(v % 3)
		}
		return m
	}
	f := func(aBits, bBits uint8, av, bv int64) bool {
		a, b := gen(aBits, av), gen(bBits, bv)
		return a.Equal(b) == (a.String() == b.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Install must keep the flow table's order: descending priority, ties in
// installation order.
func TestInstallKeepsStableTieOrder(t *testing.T) {
	s := NewSwitch("s", 1)
	mk := func(prio int, port int) FlowEntry {
		return FlowEntry{Priority: prio, Match: Match{DstPort: ptr(int64(port))}, Action: Action{Kind: ActionOutput, Port: port}, Tags: 1}
	}
	s.Install(mk(1, 10))
	s.Install(mk(3, 20))
	s.Install(mk(1, 30)) // ties with the first: must land after it
	s.Install(mk(2, 40))
	var got []int
	for _, e := range s.Table() {
		got = append(got, e.Action.Port)
	}
	want := []int{20, 40, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("table order = %v, want %v", got, want)
		}
	}
}

func TestFieldPtrWildcard(t *testing.T) {
	if FieldPtr(ndlog.Wild()) != nil {
		t.Fatal("wildcard must become a nil match field")
	}
	if p := FieldPtr(ndlog.Int(7)); p == nil || *p != 7 {
		t.Fatal("integer field broken")
	}
}

// A packet's tag set is always partitioned: every tag either lands in
// exactly one action group or misses — never both, never twice.
func TestMatchGroupsPartitionProperty(t *testing.T) {
	f := func(tags uint64, entries uint8) bool {
		if tags == 0 {
			tags = 1
		}
		s := NewSwitch("s", 1)
		n := int(entries%6) + 1
		for i := 0; i < n; i++ {
			s.Install(FlowEntry{
				Priority: i % 3,
				Match:    Match{},
				Action:   Action{Kind: ActionOutput, Port: i},
				Tags:     tags >> uint(i), // varied, possibly empty sets
			})
		}
		groups, miss := s.matchGroups(0, Packet{Tags: tags})
		var covered uint64
		for _, g := range groups {
			if covered&g != 0 {
				return false // a tag in two groups
			}
			covered |= g
		}
		if covered&miss != 0 {
			return false // a tag both matched and missed
		}
		return covered|miss == tags
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// matchGroups is the map-shaped view of matchActions.
func (s *Switch) matchGroups(inPort int64, p Packet) (groups map[Action]uint64, miss uint64) {
	acts, miss := s.matchActions(inPort, p, nil)
	groups = make(map[Action]uint64, len(acts))
	for _, g := range acts {
		groups[g.act] |= g.tags
	}
	return groups, miss
}

// scanMatch is the reference matcher the index must reproduce: a linear
// scan over Table() in (priority desc, install order asc), where each tag
// goes to the first entry that matches the packet and carries the tag.
func scanMatch(s *Switch, inPort int64, p Packet) ([]actionGroup, uint64) {
	remaining := p.Tags
	var acts []actionGroup
	for _, e := range s.Table() {
		if remaining == 0 {
			break
		}
		hit := remaining & e.Tags
		if hit == 0 || !e.Match.Matches(inPort, p) {
			continue
		}
		acts = addAction(acts, e.Action, hit)
		remaining &^= hit
	}
	return acts, remaining
}

// refTable is an independent model of the flow table's contents: entries
// in installation order, a re-install covered by an identical earlier
// entry dropped, and the view stably sorted by descending priority.
type refTable []FlowEntry

func (rt *refTable) install(e FlowEntry) {
	for _, t := range *rt {
		if t.Priority == e.Priority && t.Match.Equal(e.Match) && t.Action == e.Action && e.Tags&^t.Tags == 0 {
			return
		}
	}
	*rt = append(*rt, e)
}

func (rt refTable) view() []FlowEntry {
	out := append([]FlowEntry(nil), rt...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// opReader turns a byte string into generator decisions, so the random
// differential and the fuzz target drive one generator. Reads past the
// end return zero.
type opReader struct {
	data []byte
	off  int
}

func (r *opReader) done() bool { return r.off >= len(r.data) }

func (r *opReader) next() byte {
	if r.done() {
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *opReader) intn(n int) int { return int(r.next()) % n }

func (r *opReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.next())
	}
	return v
}

// tags draws a tag set that exercises the whole 64-bit width: all tags,
// the top tag, one arbitrary tag, or an arbitrary set.
func (r *opReader) tags() uint64 {
	switch r.intn(4) {
	case 0:
		return ^uint64(0)
	case 1:
		return 1<<63 | r.u64()>>60
	case 2:
		return 1 << uint(r.intn(64))
	}
	return r.u64()
}

// fieldVal draws a match or header value from a small universe, so
// generated entries collide on keys and generated packets hit them.
func (r *opReader) fieldVal() int64 { return int64(r.intn(4)) }

func (r *opReader) entry() FlowEntry {
	sig := uint8(r.intn(64))
	var key [6]int64
	for i := range key {
		key[i] = r.fieldVal()
	}
	act := Action{Kind: ActionOutput, Port: r.intn(3)}
	if r.intn(4) == 0 {
		act = Action{Kind: ActionDrop}
	}
	return FlowEntry{Priority: r.intn(4), Match: sigMatch(sig, key), Action: act, Tags: r.tags()}
}

// packet draws a lookup, usually with header values copied from an
// installed entry's concrete fields so that lookups hit.
func (r *opReader) packet(installed []FlowEntry) (int64, Packet) {
	var vals [6]int64
	for i := range vals {
		vals[i] = r.fieldVal()
	}
	if len(installed) > 0 && r.intn(4) != 0 {
		sig, key := maskSig(installed[r.intn(len(installed))].Match)
		for i := range vals {
			if sig&(1<<uint(i)) != 0 {
				vals[i] = key[i]
			}
		}
	}
	return vals[0], Packet{SrcIP: vals[1], DstIP: vals[2], SrcPort: vals[3],
		DstPort: vals[4], Proto: vals[5], Tags: r.tags()}
}

// runFlowIndexProgram interprets data as a sequence of installs (fresh
// entries, covered re-installs, uncovered re-installs) interleaved with
// lookups. Every lookup must give the scan oracle's action groups, in
// order, and its miss mask; the table must equal the reference model's.
// It returns the number of lookups and of lookups that matched a tag.
func runFlowIndexProgram(t *testing.T, data []byte) (lookups, hits int) {
	t.Helper()
	r := &opReader{data: data}
	s := NewSwitch("s", 1)
	var ref refTable
	var installed []FlowEntry
	install := func(e FlowEntry) {
		s.Install(e)
		ref.install(e)
		installed = append(installed, e)
	}
	for !r.done() {
		switch op := r.intn(8); {
		case op < 3:
			install(r.entry())
		case op < 5 && len(installed) > 0:
			e := installed[r.intn(len(installed))]
			switch r.intn(3) {
			case 0: // covered: the same tags or a subset
				e.Tags &= r.u64() | uint64(r.intn(2))*^uint64(0)
			case 1: // uncovered: extra tags
				e.Tags |= r.tags()
			default: // a new entry at another priority
				e.Priority = r.intn(4)
			}
			install(e)
		default:
			inPort, p := r.packet(installed)
			wantActs, wantMiss := scanMatch(s, inPort, p)
			gotActs, gotMiss := s.matchActions(inPort, p, nil)
			if gotMiss != wantMiss || !reflect.DeepEqual(gotActs, wantActs) {
				t.Fatalf("lookup %d (in %d, %v tags %#x): index gave %v miss %#x, scan gave %v miss %#x",
					lookups, inPort, p, p.Tags, gotActs, gotMiss, wantActs, wantMiss)
			}
			lookups++
			if wantMiss != p.Tags {
				hits++
			}
		}
	}
	got, want := s.Table(), ref.view()
	if len(got) != len(want) {
		t.Fatalf("table has %d entries, the model %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Priority != w.Priority || !g.Match.Equal(w.Match) || g.Action != w.Action || g.Tags != w.Tags {
			t.Fatalf("table[%d] = %v tags %#x, model %v tags %#x", i, g, g.Tags, w, w.Tags)
		}
	}
	return lookups, hits
}

// genProgram draws one generator input of n bytes.
func genProgram(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// The tuple-space index must reproduce the scan oracle on generated
// switches: random signatures over all six fields, priority ties,
// covered and uncovered re-installs, 64-bit tag sets, and installs
// interleaved with lookups that mostly hit.
func TestFlowIndexMatchesScanGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lookups, hits := 0, 0
	for i := 0; i < 300; i++ {
		l, h := runFlowIndexProgram(t, genProgram(rng, 64+rng.Intn(4000)))
		lookups += l
		hits += h
	}
	t.Logf("%d lookups, %d hit", lookups, hits)
	// The generator must keep exercising the merge, not just misses.
	if lookups < 10000 || hits*2 < lookups {
		t.Fatalf("weak generator: %d lookups, %d hit", lookups, hits)
	}
}

func FuzzFlowIndexMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(genProgram(rng, 256<<uint(i%4)))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		runFlowIndexProgram(t, data)
	})
}
