package sdn

import "sort"

// Tuple-space-search flow table: the switch's only entry store and its
// only matcher.
//
// Entries are partitioned by wildcard signature (which of the six match
// fields are concrete); within a signature every entry is an exact match
// over its concrete fields, so one hash probe per signature yields the
// packet's candidate entries. Lookup k-way merges those buckets by
// (priority desc, install seq asc): the order in which an OpenFlow table
// sorted by priority, ties in installation order, would be scanned.
// Bucket membership is equivalent to Match.Matches (concrete fields equal
// the packet's, wildcards match anything), so no per-entry match test
// runs. A linear scan over Table() is the test oracle (match_test.go).
//
// An entry's Match is not stored: its signature and bucket key determine
// it, and Table() rebuilds it. Buckets therefore hold no pointers and
// cost the garbage collector nothing to scan.

// idxEntry is one installed flow entry minus its match, plus its
// installation sequence number (the tie-break among equal priorities).
type idxEntry struct {
	prio int
	seq  int
	act  Action
	tags uint64
}

// maskGroup holds all entries sharing one wildcard signature, bucketed by
// their concrete field values; each bucket is kept in (priority desc,
// seq asc) order.
type maskGroup struct {
	sig     uint8
	buckets map[[6]int64][]idxEntry
}

// flowIndex is the per-switch tuple-space flow table.
type flowIndex struct {
	groups []*maskGroup
	bySig  map[uint8]*maskGroup
	seq    int
}

func newFlowIndex() *flowIndex {
	return &flowIndex{bySig: make(map[uint8]*maskGroup)}
}

// maskSig computes an entry's wildcard signature (bit i set = field i
// concrete) and its bucket key. Field order: InPort, SrcIP, DstIP,
// SrcPort, DstPort, Proto.
func maskSig(m Match) (sig uint8, key [6]int64) {
	fields := [6]*int64{m.InPort, m.SrcIP, m.DstIP, m.SrcPort, m.DstPort, m.Proto}
	for i, f := range fields {
		if f != nil {
			sig |= 1 << uint(i)
			key[i] = *f
		}
	}
	return sig, key
}

// sigMatch is maskSig's inverse: the Match whose concrete fields are the
// signature's, valued from the key.
func sigMatch(sig uint8, key [6]int64) Match {
	var fields [6]*int64
	for i := range fields {
		if sig&(1<<uint(i)) != 0 {
			v := key[i]
			fields[i] = &v
		}
	}
	return Match{InPort: fields[0], SrcIP: fields[1], DstIP: fields[2],
		SrcPort: fields[3], DstPort: fields[4], Proto: fields[5]}
}

// install adds an entry unless an identical earlier entry already covers
// its tag set (an idempotent re-install). The covered-duplicate check
// only needs this entry's own bucket: Match.Equal implies equal signature
// and key.
func (fi *flowIndex) install(e FlowEntry) {
	sig, key := maskSig(e.Match)
	g := fi.bySig[sig]
	if g == nil {
		g = &maskGroup{sig: sig, buckets: make(map[[6]int64][]idxEntry)}
		fi.bySig[sig] = g
		fi.groups = append(fi.groups, g)
	}
	bucket := g.buckets[key]
	for i := range bucket {
		t := &bucket[i]
		if t.prio == e.Priority && t.act == e.Action && e.Tags&^t.tags == 0 {
			return
		}
	}
	fi.seq++
	pos := len(bucket)
	for i := range bucket {
		if bucket[i].prio < e.Priority {
			pos = i
			break
		}
	}
	bucket = append(bucket, idxEntry{})
	copy(bucket[pos+1:], bucket[pos:])
	bucket[pos] = idxEntry{prio: e.Priority, seq: fi.seq, act: e.Action, tags: e.Tags}
	g.buckets[key] = bucket
}

// Table returns a copy of the flow table, highest priority first with
// equal-priority ties in installation order.
func (s *Switch) Table() []FlowEntry {
	type seqEntry struct {
		e   FlowEntry
		seq int
	}
	var all []seqEntry
	for _, g := range s.idx.groups {
		for key, b := range g.buckets {
			m := sigMatch(g.sig, key)
			for _, ie := range b {
				all = append(all, seqEntry{FlowEntry{Priority: ie.prio, Match: m, Action: ie.act, Tags: ie.tags}, ie.seq})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.Priority != all[j].e.Priority {
			return all[i].e.Priority > all[j].e.Priority
		}
		return all[i].seq < all[j].seq
	})
	out := make([]FlowEntry, len(all))
	for i := range all {
		out[i] = all[i].e
	}
	return out
}

// actionGroup is one action and the tag set it won during matching.
type actionGroup struct {
	act  Action
	tags uint64
}

// addAction ORs tags into the action's group, appending a new group when
// the action is new; the distinct-action count per packet is tiny, so a
// linear probe beats a map (and its per-hop allocation).
func addAction(acts []actionGroup, a Action, tags uint64) []actionGroup {
	for i := range acts {
		if acts[i].act == a {
			acts[i].tags |= tags
			return acts
		}
	}
	return append(acts, actionGroup{act: a, tags: tags})
}

// idxCursor walks one bucket during the lookup merge.
type idxCursor struct {
	bucket []idxEntry
	i      int
}

// matchActions partitions the packet's tag set by the highest-priority
// matching entry per tag, appending per-action groups to acts (callers
// pass a stack buffer). The returned remainder (tags with no matching
// entry) misses to the controller. It probes one bucket per signature,
// then merges the hits in (priority desc, seq asc) order until every tag
// is claimed or the buckets run out.
func (s *Switch) matchActions(inPort int64, p Packet, acts []actionGroup) ([]actionGroup, uint64) {
	remaining := p.Tags
	vals := [6]int64{inPort, p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto}
	cursors := s.mcur[:0]
	for _, g := range s.idx.groups {
		var key [6]int64
		for i := range key {
			if g.sig&(1<<uint(i)) != 0 {
				key[i] = vals[i]
			}
		}
		if b := g.buckets[key]; len(b) > 0 {
			cursors = append(cursors, idxCursor{bucket: b})
		}
	}
	for remaining != 0 {
		best := -1
		for ci := range cursors {
			c := &cursors[ci]
			if c.i >= len(c.bucket) {
				continue
			}
			if best == -1 {
				best = ci
				continue
			}
			be := &cursors[best].bucket[cursors[best].i]
			ce := &c.bucket[c.i]
			if ce.prio > be.prio || (ce.prio == be.prio && ce.seq < be.seq) {
				best = ci
			}
		}
		if best == -1 {
			break
		}
		ent := &cursors[best].bucket[cursors[best].i]
		cursors[best].i++
		hit := remaining & ent.tags
		if hit == 0 {
			continue
		}
		acts = addAction(acts, ent.act, hit)
		remaining &^= hit
	}
	s.mcur = cursors
	return acts, remaining
}
