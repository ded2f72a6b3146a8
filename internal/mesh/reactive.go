package mesh

import (
	"fmt"

	"diva/internal/sim"
	"diva/internal/xrand"
)

// This file is the reliable-transport shim of the network's reactive
// fault-tolerance mode. In oracle mode (the default) a message that cannot
// be delivered consults global link state and is held until the exact heal
// time; no simulated protocol ever detects a failure. In reactive mode the
// network is lossy — a message crossing a failure point is silently
// dropped (fault.go) — and delivery is recovered end to end: every
// cross-node message carries a per-channel sequence number, the receiver
// acknowledges it with a fire-and-forget ack, and the sender runs a
// retransmission timer (kernel timer tier, sim/timer.go) with exponential
// backoff and deterministic jitter drawn from per-node seed-derived RNG
// streams. After MaxRetries consecutive timeouts the sender declares the
// destination suspect — timeout-based failure detection — and consults the
// message kind's give-up handler, which is where the strategies hook their
// recovery (fixedhome home failover, accesstree re-issue).
//
// Everything is deterministic by construction: timers are ordinary
// (t, seq) events, per-channel sequence numbers and RNG draws advance in
// each node's event order, and the drop decision happens in the global
// routing order. Runs are therefore fingerprint-identical across
// fork/restore.

// KindTransportAck is the message kind reserved for transport
// acknowledgements in reactive mode. It is intercepted by the delivery
// path before handler dispatch; registering a handler for it on a reactive
// network panics.
const KindTransportAck uint8 = 255

// TransportAckBytes is the wire size of one transport ack.
const TransportAckBytes = 8

// reactMaxBackoff caps the retransmission backoff at this multiple of the
// base timeout, so a sender waiting out a long outage keeps probing.
const reactMaxBackoff = 64

// ReactParams configures the reliable transport of reactive mode.
type ReactParams struct {
	// AckTimeoutUS is the base retransmission timeout: the time a sender
	// waits for an ack before retransmitting (scaled by backoff and
	// jitter on every subsequent attempt).
	AckTimeoutUS float64
	// MaxRetries is the number of consecutive unacknowledged
	// retransmissions after which the sender declares the destination
	// suspect and consults the kind's give-up handler.
	MaxRetries int
	// Backoff is the timeout multiplier per attempt (exponential backoff,
	// capped at reactMaxBackoff times the base).
	Backoff float64
}

// DefaultReactParams returns the reactive-transport defaults: 2 ms base
// timeout (a healthy request/response round trip is well under 1 ms at
// GCel timings), 5 retries, doubling backoff.
func DefaultReactParams() ReactParams {
	return ReactParams{AckTimeoutUS: 2000, MaxRetries: 5, Backoff: 2}
}

// Validate reports the first invalid field, or nil.
func (p ReactParams) Validate() error {
	if !(p.AckTimeoutUS > 0) {
		return fmt.Errorf("mesh: ack timeout must be positive, have %g", p.AckTimeoutUS)
	}
	if p.MaxRetries < 1 {
		return fmt.Errorf("mesh: max retries must be at least 1, have %d", p.MaxRetries)
	}
	if !(p.Backoff >= 1) {
		return fmt.Errorf("mesh: backoff must be at least 1, have %g", p.Backoff)
	}
	return nil
}

// GiveUpAction is a give-up handler's verdict on an undeliverable message.
type GiveUpAction uint8

const (
	// GiveUpRetry keeps retransmitting on the same channel at the capped
	// backoff (the default for kinds without a handler: delivery is
	// eventually guaranteed because every fault schedule ends healed).
	GiveUpRetry GiveUpAction = iota
	// GiveUpReissue restarts the attempt counter and backoff on the same
	// channel: the strategy has refreshed its own state (e.g. the spanning
	// forest re-embedded) and wants a fresh detection cycle. The transport
	// sequence number is kept, so a late duplicate of the original is
	// still deduplicated.
	GiveUpReissue
	// GiveUpRedirect retires the channel and re-targets the message at the
	// new destination the handler returned (fixedhome home failover).
	GiveUpRedirect
	// GiveUpDrop abandons the message: the handler has compensated at the
	// protocol level (e.g. treated a dead copy holder as invalidated).
	GiveUpDrop
)

// GiveUp describes an undeliverable message to its kind's give-up handler:
// MaxRetries+1 transmissions went unacknowledged. The handler may mutate
// protocol state and send messages; it returns the action to take and, for
// GiveUpRedirect, the new destination.
type GiveUp struct {
	Src, Dst    int
	Size        int
	Kind        uint8
	Tag         int
	Payload     interface{}
	Attempts    int      // transmissions so far
	FirstDepart sim.Time // departure of the first transmission
}

// GiveUpHandler decides what to do with an undeliverable message.
// newDst is only consulted for GiveUpRedirect.
type GiveUpHandler func(g *GiveUp) (newDst int, action GiveUpAction)

// xmit is one outstanding (unacknowledged) transmission at its sender.
// Records live in the network-wide slab reactState.xs at index id, which
// every transmission of the message and its acks carry as Msg.xid, so an
// ack finds its record without a lookup. A released record keeps only its
// id; its zero xseq can never match an ack, since channel sequences start
// at 1. A live record always has exactly one pending retransmission
// timer, so at kernel quiescence no records exist — snapshots capture
// none.
type xmit struct {
	id          uint32 // slab index, fixed for the record's lifetime
	src, dst    int
	size        int
	kind        uint8
	tag         int
	payload     interface{}
	xseq        uint32
	attempt     int  // transmissions so far
	gaveUp      bool // this detection cycle already counted in Detected
	delayUS     float64
	firstDepart sim.Time
	timer       sim.TimerID
}

// recvChan is one directed channel's receiver-side dedup state: every
// sequence at or below floor was delivered; seen holds the delivered
// sequences above it (out-of-order arrivals, bounded by the outstanding
// window). A channel that never delivered has floor 0 and no seen set;
// every channel that delivered has one of the two.
type recvChan struct {
	floor uint32
	seen  map[uint32]struct{}
}

// used reports whether the channel has delivered anything.
func (c *recvChan) used() bool { return c.floor != 0 || len(c.seen) != 0 }

// accept reports whether xseq is fresh, recording it.
func (c *recvChan) accept(xseq uint32) bool {
	if xseq <= c.floor {
		return false
	}
	if _, ok := c.seen[xseq]; ok {
		return false
	}
	if xseq == c.floor+1 {
		c.floor++
		for {
			if _, ok := c.seen[c.floor+1]; !ok {
				break
			}
			delete(c.seen, c.floor+1)
			c.floor++
		}
		return true
	}
	if c.seen == nil {
		c.seen = make(map[uint32]struct{})
	}
	c.seen[xseq] = struct{}{}
	return true
}

// reactNode is one node's transport state. Every field is touched only in
// the node's own event context. The per-peer rows are indexed by peer id
// and allocated on the node's first send or first receive, so nodes that
// never use a channel cost nothing; an unused entry reads zero.
type reactNode struct {
	rng      *xrand.RNG
	nextSend []uint32         // dst -> last channel sequence issued (0: none)
	recv     []recvChan       // src -> receiver dedup state
	suspect  map[int]sim.Time // dst -> time the sender declared it suspect
	stats    FaultStats       // event-context counters (summed by FaultStats)
}

// reactState is the network's reactive-mode state; nil in oracle mode.
type reactState struct {
	p      ReactParams
	seed   uint64 // the derived transport seed (for RNG re-derivation)
	nodes  []reactNode
	giveUp [256]GiveUpHandler
	base   FaultStats // restored-snapshot baseline of the folded node stats

	// xs is the slab of outstanding-transmission records, indexed by
	// xmit.id; xfree holds the indices of released records.
	xs    []*xmit
	xfree []uint32
}

// outstanding returns the number of live transmission records.
func (r *reactState) outstanding() int { return len(r.xs) - len(r.xfree) }

// reactNodeSeed derives node's private RNG stream from the transport seed.
func reactNodeSeed(seed uint64, node int) uint64 {
	return seed ^ (uint64(node)+1)*0x9e3779b97f4a7c15
}

// EnableReactive switches the network to reactive fault-tolerance mode:
// lossy delivery at failure points plus the ack/retransmit transport. seed
// is the dedicated transport seed (the machine layer derives it from the
// run seed under a private salt, the fault.Gen pattern); the per-node
// jitter streams split off it. Must be called before any message is sent.
func (nw *Network) EnableReactive(p ReactParams, seed uint64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if nw.react != nil {
		return fmt.Errorf("mesh: reactive mode already enabled")
	}
	if nw.handlers[KindTransportAck] != nil {
		return fmt.Errorf("mesh: message kind %d is reserved for transport acks in reactive mode", KindTransportAck)
	}
	r := &reactState{p: p, seed: seed, nodes: make([]reactNode, nw.T.N())}
	for i := range r.nodes {
		r.nodes[i].rng = xrand.New(reactNodeSeed(seed, i))
	}
	nw.react = r
	nw.reactTimeoutFn = nw.reactTimeout
	return nil
}

// Reactive reports whether the network runs in reactive mode.
func (nw *Network) Reactive() bool { return nw.react != nil }

// ReactParams returns the transport parameters (zero value in oracle mode).
func (nw *Network) ReactParams() ReactParams {
	if nw.react == nil {
		return ReactParams{}
	}
	return nw.react.p
}

// OnGiveUp registers kind's give-up handler: called when MaxRetries+1
// transmissions of a message went unacknowledged. Strategies register
// their recovery here. Panics on kind 255 (the ack kind never gives up —
// acks are fire-and-forget) and on double registration.
func (nw *Network) OnGiveUp(kind uint8, h GiveUpHandler) {
	if nw.react == nil {
		panic("mesh: OnGiveUp on an oracle-mode network")
	}
	if kind == KindTransportAck {
		panic("mesh: transport acks have no give-up handler")
	}
	if nw.react.giveUp[kind] != nil {
		panic(fmt.Sprintf("mesh: give-up handler for kind %d registered twice", kind))
	}
	nw.react.giveUp[kind] = h
}

// NodeDownNow reports whether node's network interface is down at the
// fault schedule's current position (false without a schedule). Give-up
// handlers consult it to choose between "wait for heal" and "fail over";
// the detection *timing* stays reactive — this is only read after the
// transport has already timed out.
func (nw *Network) NodeDownNow(node int) bool {
	if nw.faults == nil {
		return false
	}
	return nw.faults.nodeDown[node]
}

// ReactReseed re-derives the per-node jitter streams from a fresh
// transport seed (fork-with-reseed; mirrors the strategy Reseed contract).
func (nw *Network) ReactReseed(seed uint64) {
	if nw.react == nil {
		return
	}
	nw.react.seed = seed
	for i := range nw.react.nodes {
		nw.react.nodes[i].rng = xrand.New(reactNodeSeed(seed, i))
	}
}

// acquireXmit returns a released slab record, or a fresh one.
func (r *reactState) acquireXmit() *xmit {
	if n := len(r.xfree); n > 0 {
		id := r.xfree[n-1]
		r.xfree = r.xfree[:n-1]
		return r.xs[id]
	}
	x := &xmit{id: uint32(len(r.xs))}
	r.xs = append(r.xs, x)
	return x
}

// releaseXmit retires x, keeping only its slab index.
func (r *reactState) releaseXmit(x *xmit) {
	*x = xmit{id: x.id}
	r.xfree = append(r.xfree, x.id)
}

// sendRow returns the node's per-destination sequence row, allocating it
// on the node's first send.
func (r *reactState) sendRow(sn *reactNode) []uint32 {
	if sn.nextSend == nil {
		sn.nextSend = make([]uint32, len(r.nodes))
	}
	return sn.nextSend
}

// recvRow returns the node's per-source dedup row, allocating it on the
// node's first receive.
func (r *reactState) recvRow(dn *reactNode) []recvChan {
	if dn.recv == nil {
		dn.recv = make([]recvChan, len(r.nodes))
	}
	return dn.recv
}

// jitter draws the deterministic timeout jitter, uniform in [1, 1.25),
// from the node's private stream.
func (sn *reactNode) jitter() float64 { return 1 + sn.rng.Float64()/4 }

// reactOnSend intercepts a first transmission at the top of
// deliverAfterRoute: it stamps the channel sequence, registers the
// outstanding record and schedules the retransmission timer — before the
// delivery allocates the arrival sequence, so the timer's sequence always
// precedes the arrival's.
// Node-local messages, acks and retransmissions (xseq already stamped)
// pass through untouched.
func (nw *Network) reactOnSend(m *Msg, depart sim.Time) {
	if m.Src == m.Dst || m.Kind == KindTransportAck || m.xseq != 0 {
		return
	}
	r := nw.react
	sn := &r.nodes[m.Src]
	row := r.sendRow(sn)
	row[m.Dst]++
	m.xseq = row[m.Dst]
	m.xatt = 1
	x := r.acquireXmit()
	*x = xmit{
		id: x.id, src: m.Src, dst: m.Dst, size: m.Size, kind: m.Kind, tag: m.Tag,
		payload: m.Payload, xseq: m.xseq, attempt: 1,
		delayUS: r.p.AckTimeoutUS, firstDepart: depart,
	}
	m.xid = x.id
	x.timer = nw.K.TimerAt(depart+x.delayUS*sn.jitter(), nw.reactTimeoutFn, x)
}

// reactTimeout fires when a transmission's ack timeout expires, in the
// sender's event context: retransmit with backed-off timeout, or — after
// MaxRetries+1 unacknowledged transmissions — declare the destination
// suspect and consult the kind's give-up handler.
func (nw *Network) reactTimeout(xi interface{}) {
	x := xi.(*xmit)
	r := nw.react
	sn := &r.nodes[x.src]
	k := nw.K
	if x.attempt > r.p.MaxRetries {
		if !x.gaveUp {
			// Detection: the first give-up of this cycle.
			x.gaveUp = true
			sn.stats.Detected++
			sn.stats.DetectUS += k.Now() - x.firstDepart
			if _, ok := sn.suspect[x.dst]; !ok {
				if sn.suspect == nil {
					sn.suspect = make(map[int]sim.Time)
				}
				sn.suspect[x.dst] = k.Now()
			}
		}
		g := GiveUp{
			Src: x.src, Dst: x.dst, Size: x.size, Kind: x.kind, Tag: x.tag,
			Payload: x.payload, Attempts: x.attempt, FirstDepart: x.firstDepart,
		}
		newDst, action := x.dst, GiveUpRetry
		if h := r.giveUp[x.kind]; h != nil {
			newDst, action = h(&g)
		}
		switch action {
		case GiveUpDrop:
			r.releaseXmit(x)
			return
		case GiveUpRedirect:
			sn.stats.Failovers++
			src, size, kind, tag, payload := x.src, x.size, x.kind, x.tag, x.payload
			r.releaseXmit(x)
			m := nw.AcquireMsg()
			m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = src, newDst, size, kind, tag, payload
			nw.Send(m) // a fresh first transmission on the new channel
			return
		case GiveUpReissue:
			// Fresh detection cycle on the same channel: reset the attempt
			// counter and backoff; the retransmission below is attempt 1.
			sn.stats.Reissues++
			x.attempt = 0
			x.gaveUp = false
			x.delayUS = r.p.AckTimeoutUS / r.p.Backoff // restored by the bump below
			x.firstDepart = k.Now()
		case GiveUpRetry:
			// Keep probing at the capped backoff.
		}
	}
	// Retransmit: fresh copy, fresh send startup, backed-off timer.
	x.attempt++
	sn.stats.Retransmits++
	sn.stats.RetransmitBytes += uint64(x.size)
	if x.delayUS *= r.p.Backoff; x.delayUS > r.p.AckTimeoutUS*reactMaxBackoff {
		x.delayUS = r.p.AckTimeoutUS * reactMaxBackoff
	}
	m := nw.AcquireMsg()
	m.Src, m.Dst, m.Size, m.Kind, m.Tag, m.Payload = x.src, x.dst, x.size, x.kind, x.tag, x.payload
	m.xseq, m.xatt, m.xid = x.xseq, uint16(x.attempt), x.id
	depart := nw.chargeSend(x.src)
	x.timer = nw.K.TimerAt(depart+x.delayUS*sn.jitter(), nw.reactTimeoutFn, x)
	nw.deliverAfterRoute(m, depart)
}

// reactAccept runs in the receiver's event context when a transport-
// sequenced message is ready: acknowledge it (always — a duplicate
// usually means the previous ack was lost) and report whether it is fresh.
// Duplicates are dropped without handler dispatch, which is what makes
// strategy-level redirects protocol-safe.
func (nw *Network) reactAccept(m *Msg) bool {
	r := nw.react
	dn := &r.nodes[m.Dst]
	fresh := r.recvRow(dn)[m.Src].accept(m.xseq)
	if !fresh {
		dn.stats.DupDrops++
	}
	dn.stats.AckMsgs++
	dn.stats.AckBytes += TransportAckBytes
	ack := nw.AcquireMsg()
	ack.Src, ack.Dst, ack.Size, ack.Kind = m.Dst, m.Src, TransportAckBytes, KindTransportAck
	ack.xseq, ack.xatt, ack.xid = m.xseq, m.xatt, m.xid
	depart := nw.chargeSend(m.Dst)
	nw.deliverAfterRoute(ack, depart)
	return fresh
}

// reactOnAck runs in the original sender's event context when an ack
// arrives: cancel the retransmission timer, retire the record, account
// false timeouts (retransmissions of attempts the receiver had already
// seen) and clear the destination's suspect entry. The ack names its
// record by slab index; the record is taken only when its channel and
// sequence match, which rejects duplicate acks of a retired record and
// stale acks of a recycled slot alike (a sequence is issued once per
// channel, and a released record's zero sequence matches nothing).
func (nw *Network) reactOnAck(m *Msg) {
	r := nw.react
	if int(m.xid) >= len(r.xs) {
		return
	}
	x := r.xs[m.xid]
	if x.xseq != m.xseq || x.src != m.Dst || x.dst != m.Src {
		return // duplicate ack for an already-retired record
	}
	sn := &r.nodes[m.Dst]
	nw.K.CancelTimer(x.timer)
	if a := int(m.xatt); a < x.attempt {
		sn.stats.FalseTimeouts += uint64(x.attempt - a)
	}
	if len(sn.suspect) > 0 {
		if t, ok := sn.suspect[m.Src]; ok {
			sn.stats.Recovered++
			sn.stats.RecoverUS += nw.K.Now() - t
			delete(sn.suspect, m.Src)
		}
	}
	r.releaseXmit(x)
}
