package mesh

import (
	"fmt"
	"sort"

	"diva/internal/sim"
	"diva/internal/xrand"
)

// This file captures and restores a Network's mutable simulated state for
// machine snapshot/fork. The capture is only legal at kernel quiescence —
// no messages in flight, no processes blocked in Recv — which the machine
// layer verifies before calling in here; the network-level checks below
// are the defensive remainder (inbox waiters, an open inline journal).
//
// Deliberately NOT captured, because a fork starting fresh is provably
// indistinguishable: the Msg free lists (recycled messages are zeroed on
// acquire, their identity never observable), the route memo (a pure
// function of the topology, rebuilt lazily — and per fork, so concurrently
// running forks never share the lazily-appended slab).

// NetworkState is a deep copy of a Network's mutable simulated state. It is
// immutable after capture; any number of forks can restore from one.
type NetworkState struct {
	links     []link
	cpuFree   []sim.Time
	computeUS []float64
	sendMsgs  [256]uint64
	sendBytes [256]uint64
	inboxes   []inboxState

	// Fault engine position: the schedule cursor plus counters. The
	// schedule itself is part of the machine configuration (replayed at
	// fork construction), so the position fully determines link state —
	// restore re-applies the schedule prefix.
	faultCursor int
	faultStats  FaultStats

	// Reactive transport state (nil for oracle-mode captures): per-node
	// jitter-RNG positions, the channels in use of the per-peer rows
	// (sequence counters and receiver dedup state), suspect sets, plus
	// the folded transport counters. No outstanding transmissions or
	// timers exist at quiescence: a live record always holds a pending
	// timer, which blocks the capture, and the capture checks the slab's
	// outstanding-record count as a defence. The slab itself is not
	// captured; a restored network starts with an empty one.
	react *reactCapture
}

// reactCapture is the reactive transport's captured state.
type reactCapture struct {
	stats FaultStats // folded per-node counters plus any restored baseline
	nodes []reactNodeCap
}

// reactNodeCap is one node's transport state in canonical form: parallel
// key/value slices with keys ascending, holding only the channels in use,
// so captures of identical runs are identical.
type reactNodeCap struct {
	rng       xrand.State
	sendDst   []int
	sendSeq   []uint32
	recvSrc   []int
	recvFloor []uint32
	recvSeen  [][]uint32
	suspDst   []int
	suspAt    []sim.Time
}

// validate checks every node's capture against the node count: the keys
// of each per-peer table must be peer ids in [0, N), strictly ascending,
// with values a capture can produce. A snapshot read from disk crosses a
// trust boundary; restoring an out-of-range key would index past the
// transport's per-peer rows.
func (rc *reactCapture) validate() error {
	n := len(rc.nodes)
	for i := range rc.nodes {
		nc := &rc.nodes[i]
		if len(nc.sendDst) != len(nc.sendSeq) ||
			len(nc.recvSrc) != len(nc.recvFloor) || len(nc.recvSrc) != len(nc.recvSeen) ||
			len(nc.suspDst) != len(nc.suspAt) {
			return fmt.Errorf("mesh: reactive node %d has mismatched key/value slices", i)
		}
		if err := checkPeerKeys(nc.sendDst, n); err != nil {
			return fmt.Errorf("mesh: reactive node %d send channels: %w", i, err)
		}
		if err := checkPeerKeys(nc.recvSrc, n); err != nil {
			return fmt.Errorf("mesh: reactive node %d receive channels: %w", i, err)
		}
		if err := checkPeerKeys(nc.suspDst, n); err != nil {
			return fmt.Errorf("mesh: reactive node %d suspects: %w", i, err)
		}
		for j, sq := range nc.sendSeq {
			if sq == 0 {
				return fmt.Errorf("mesh: reactive node %d send channel to %d has sequence 0", i, nc.sendDst[j])
			}
		}
		for j, src := range nc.recvSrc {
			if nc.recvFloor[j] == 0 && len(nc.recvSeen[j]) == 0 {
				return fmt.Errorf("mesh: reactive node %d receive channel from %d has delivered nothing", i, src)
			}
		}
	}
	return nil
}

// checkPeerKeys reports the first key outside [0, n), duplicated, or out
// of ascending order.
func checkPeerKeys(keys []int, n int) error {
	for j, k := range keys {
		if k < 0 || k >= n {
			return fmt.Errorf("peer %d outside [0, %d)", k, n)
		}
		if j > 0 && k == keys[j-1] {
			return fmt.Errorf("duplicate peer %d", k)
		}
		if j > 0 && k < keys[j-1] {
			return fmt.Errorf("peers not ascending (%d after %d)", k, keys[j-1])
		}
	}
	return nil
}

// inboxState is one node's queued inbox messages, per tag in ascending tag
// order, each tag's queue in FIFO order. Msg values are copied (payloads
// are shared by reference; the library-wide contract treats them as
// immutable).
type inboxState struct {
	tags   []int
	queues [][]Msg
}

// SnapshotState captures the network's state. It fails when state that
// cannot be captured is live: processes blocked in Recv or an open inline
// journal.
func (nw *Network) SnapshotState() (*NetworkState, error) {
	if nw.ilj.active {
		return nil, fmt.Errorf("mesh: inline journal open")
	}
	st := &NetworkState{
		links:     append([]link(nil), nw.links...),
		cpuFree:   append([]sim.Time(nil), nw.cpuFree...),
		computeUS: append([]float64(nil), nw.computeUS...),
		sendMsgs:  nw.sendMsgs,
		sendBytes: nw.sendBytes,
		inboxes:   make([]inboxState, len(nw.inboxes)),
	}
	if nw.faults != nil {
		st.faultCursor = nw.faults.cursor
		st.faultStats = nw.faults.stats
	}
	if r := nw.react; r != nil {
		if n := r.outstanding(); n > 0 {
			// Unreachable at quiescence: every record holds a pending
			// timer, which keeps the kernel busy. Defensive.
			return nil, fmt.Errorf("mesh: %d outstanding transmissions", n)
		}
		rc := &reactCapture{stats: r.base, nodes: make([]reactNodeCap, len(r.nodes))}
		for i := range r.nodes {
			n := &r.nodes[i]
			rc.stats = rc.stats.add(n.stats)
			nc := &rc.nodes[i]
			nc.rng = n.rng.State()
			for d, sq := range n.nextSend {
				if sq != 0 {
					nc.sendDst = append(nc.sendDst, d)
					nc.sendSeq = append(nc.sendSeq, sq)
				}
			}
			for src := range n.recv {
				ch := &n.recv[src]
				if !ch.used() {
					continue
				}
				var seen []uint32
				for sq := range ch.seen {
					seen = append(seen, sq)
				}
				sort.Slice(seen, func(a, b int) bool { return seen[a] < seen[b] })
				nc.recvSrc = append(nc.recvSrc, src)
				nc.recvFloor = append(nc.recvFloor, ch.floor)
				nc.recvSeen = append(nc.recvSeen, seen)
			}
			nc.suspDst = make([]int, 0, len(n.suspect))
			for d := range n.suspect {
				nc.suspDst = append(nc.suspDst, d)
			}
			sort.Ints(nc.suspDst)
			nc.suspAt = make([]sim.Time, len(nc.suspDst))
			for j, d := range nc.suspDst {
				nc.suspAt[j] = n.suspect[d]
			}
		}
		st.react = rc
	}
	for n := range nw.inboxes {
		ib := &nw.inboxes[n]
		for tag, ws := range ib.waiters {
			if len(ws) > 0 {
				return nil, fmt.Errorf("mesh: node %d has a process blocked in Recv(tag=%d)", n, tag)
			}
		}
		is := &st.inboxes[n]
		for tag, q := range ib.queues {
			if len(q) > 0 {
				is.tags = append(is.tags, tag)
			}
		}
		sort.Ints(is.tags)
		is.queues = make([][]Msg, len(is.tags))
		for i, tag := range is.tags {
			q := make([]Msg, len(ib.queues[tag]))
			for j, m := range ib.queues[tag] {
				q[j] = *m
				q[j].pooled = false // inbox messages are never recycled
			}
			is.queues[i] = q
		}
	}
	return st, nil
}

// RestoreState overwrites a freshly constructed network's state with a
// captured one. The topology (link and node counts) must match.
func (nw *Network) RestoreState(st *NetworkState) error {
	if len(st.links) != len(nw.links) {
		return fmt.Errorf("mesh: snapshot has %d links, network has %d", len(st.links), len(nw.links))
	}
	if len(st.cpuFree) != len(nw.cpuFree) {
		return fmt.Errorf("mesh: snapshot has %d nodes, network has %d", len(st.cpuFree), len(nw.cpuFree))
	}
	if st.faultCursor != 0 || st.faultStats != (FaultStats{}) {
		if nw.faults == nil {
			return fmt.Errorf("mesh: snapshot is mid fault schedule but the network has none installed")
		}
	}
	if (st.react != nil) != (nw.react != nil) {
		return fmt.Errorf("mesh: snapshot and network disagree on reactive mode")
	}
	if st.react != nil {
		if len(st.react.nodes) != len(nw.react.nodes) {
			return fmt.Errorf("mesh: snapshot has reactive state for %d nodes, network has %d", len(st.react.nodes), len(nw.react.nodes))
		}
		if err := st.react.validate(); err != nil {
			return err
		}
	}
	if nw.faults != nil {
		nw.faults.resetTo(st.faultCursor)
		nw.faults.stats = st.faultStats
	}
	if rc := st.react; rc != nil {
		r := nw.react
		r.base = rc.stats
		for i := range rc.nodes {
			nc := &rc.nodes[i]
			n := &r.nodes[i]
			n.rng.SetState(nc.rng)
			n.stats = FaultStats{} // folded into base at capture
			n.nextSend, n.recv, n.suspect = nil, nil, nil
			if len(nc.sendDst) > 0 {
				row := r.sendRow(n)
				for j, d := range nc.sendDst {
					row[d] = nc.sendSeq[j]
				}
			}
			if len(nc.recvSrc) > 0 {
				row := r.recvRow(n)
				for j, src := range nc.recvSrc {
					ch := &row[src]
					ch.floor = nc.recvFloor[j]
					if len(nc.recvSeen[j]) > 0 {
						ch.seen = make(map[uint32]struct{}, len(nc.recvSeen[j]))
						for _, sq := range nc.recvSeen[j] {
							ch.seen[sq] = struct{}{}
						}
					}
				}
			}
			if len(nc.suspDst) > 0 {
				n.suspect = make(map[int]sim.Time, len(nc.suspDst))
				for j, d := range nc.suspDst {
					n.suspect[d] = nc.suspAt[j]
				}
			}
		}
	}
	copy(nw.links, st.links)
	copy(nw.cpuFree, st.cpuFree)
	copy(nw.computeUS, st.computeUS)
	nw.sendMsgs = st.sendMsgs
	nw.sendBytes = st.sendBytes
	for n := range st.inboxes {
		is := &st.inboxes[n]
		if len(is.tags) == 0 {
			continue
		}
		ib := &nw.inboxes[n]
		ib.init()
		for i, tag := range is.tags {
			q := make([]*Msg, len(is.queues[i]))
			for j := range is.queues[i] {
				m := is.queues[i][j] // copy, so forks never share a Msg
				q[j] = &m
			}
			ib.queues[tag] = q
		}
	}
	return nil
}
