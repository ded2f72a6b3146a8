package mesh

import (
	"fmt"

	"diva/internal/sim"
)

// Wire forms of the network snapshot, for on-disk persistence
// (diva/snapstore): NetworkState's fields are unexported — the in-memory
// capture is private to the fork machinery — so serialization goes through
// an exported mirror with a lossless conversion in both directions.
// Message payloads ride along as interface values; the concrete payload
// types are registered with encoding/gob by their defining packages.

// NetworkWire is the gob-encodable form of a NetworkState.
type NetworkWire struct {
	LinkBusy    []sim.Time
	LinkLoad    []LinkLoad
	CPUFree     []sim.Time
	ComputeUS   []float64
	SendMsgs    []uint64
	SendBytes   []uint64
	Inboxes     []InboxWire
	FaultCursor int
	FaultStats  FaultStats
	React       *ReactWire // nil for oracle-mode captures
}

// ReactWire is the serializable reactive-transport state.
type ReactWire struct {
	Stats FaultStats
	Nodes []ReactNodeWire
}

// ReactNodeWire is one node's transport state: parallel key/value slices
// with keys ascending (the canonical form the capture produces).
type ReactNodeWire struct {
	RNG       [4]uint64
	SendDst   []int
	SendSeq   []uint32
	RecvSrc   []int
	RecvFloor []uint32
	RecvSeen  [][]uint32
	SuspDst   []int
	SuspAt    []sim.Time
}

// InboxWire is one node's queued inbox messages: Queues[i] holds tag
// Tags[i]'s FIFO, tags ascending.
type InboxWire struct {
	Tags   []int
	Queues [][]MsgWire
}

// MsgWire is the serializable form of one queued Msg.
type MsgWire struct {
	Src, Dst int
	Size     int
	Kind     uint8
	Tag      int
	Payload  interface{}
}

// Wire converts a captured NetworkState to its serializable form. The
// state is immutable, so the per-message copies are safe to take at any
// time.
func (st *NetworkState) Wire() *NetworkWire {
	w := &NetworkWire{
		LinkBusy:    make([]sim.Time, len(st.links)),
		LinkLoad:    make([]LinkLoad, len(st.links)),
		CPUFree:     append([]sim.Time(nil), st.cpuFree...),
		ComputeUS:   append([]float64(nil), st.computeUS...),
		SendMsgs:    append([]uint64(nil), st.sendMsgs[:]...),
		SendBytes:   append([]uint64(nil), st.sendBytes[:]...),
		Inboxes:     make([]InboxWire, len(st.inboxes)),
		FaultCursor: st.faultCursor,
		FaultStats:  st.faultStats,
	}
	for i, l := range st.links {
		w.LinkBusy[i] = l.busyUntil
		w.LinkLoad[i] = l.load
	}
	if rc := st.react; rc != nil {
		rw := &ReactWire{Stats: rc.stats, Nodes: make([]ReactNodeWire, len(rc.nodes))}
		for i := range rc.nodes {
			nc := &rc.nodes[i]
			rw.Nodes[i] = ReactNodeWire{
				RNG:       nc.rng,
				SendDst:   append([]int(nil), nc.sendDst...),
				SendSeq:   append([]uint32(nil), nc.sendSeq...),
				RecvSrc:   append([]int(nil), nc.recvSrc...),
				RecvFloor: append([]uint32(nil), nc.recvFloor...),
				RecvSeen:  make([][]uint32, len(nc.recvSeen)),
				SuspDst:   append([]int(nil), nc.suspDst...),
				SuspAt:    append([]sim.Time(nil), nc.suspAt...),
			}
			for j, s := range nc.recvSeen {
				rw.Nodes[i].RecvSeen[j] = append([]uint32(nil), s...)
			}
		}
		w.React = rw
	}
	for n := range st.inboxes {
		is := &st.inboxes[n]
		iw := InboxWire{Tags: append([]int(nil), is.tags...), Queues: make([][]MsgWire, len(is.queues))}
		for i, q := range is.queues {
			mq := make([]MsgWire, len(q))
			for j, m := range q {
				mq[j] = MsgWire{Src: m.Src, Dst: m.Dst, Size: m.Size, Kind: m.Kind, Tag: m.Tag, Payload: m.Payload}
			}
			iw.Queues[i] = mq
		}
		w.Inboxes[n] = iw
	}
	return w
}

// State converts a wire form back to a NetworkState, validating its
// internal shape (Network.RestoreState validates it against the machine).
func (w *NetworkWire) State() (*NetworkState, error) {
	if len(w.LinkBusy) != len(w.LinkLoad) {
		return nil, fmt.Errorf("mesh: wire has %d link clocks but %d link loads", len(w.LinkBusy), len(w.LinkLoad))
	}
	if len(w.SendMsgs) != 256 || len(w.SendBytes) != 256 {
		return nil, fmt.Errorf("mesh: wire send counters have %d/%d kinds, want 256", len(w.SendMsgs), len(w.SendBytes))
	}
	if len(w.Inboxes) != len(w.CPUFree) {
		return nil, fmt.Errorf("mesh: wire has %d inboxes but %d nodes", len(w.Inboxes), len(w.CPUFree))
	}
	st := &NetworkState{
		links:       make([]link, len(w.LinkBusy)),
		cpuFree:     append([]sim.Time(nil), w.CPUFree...),
		computeUS:   append([]float64(nil), w.ComputeUS...),
		inboxes:     make([]inboxState, len(w.Inboxes)),
		faultCursor: w.FaultCursor,
		faultStats:  w.FaultStats,
	}
	copy(st.sendMsgs[:], w.SendMsgs)
	copy(st.sendBytes[:], w.SendBytes)
	for i := range st.links {
		st.links[i] = link{busyUntil: w.LinkBusy[i], load: w.LinkLoad[i]}
	}
	if rw := w.React; rw != nil {
		if len(rw.Nodes) != len(w.CPUFree) {
			return nil, fmt.Errorf("mesh: wire has reactive state for %d nodes but %d nodes", len(rw.Nodes), len(w.CPUFree))
		}
		rc := &reactCapture{stats: rw.Stats, nodes: make([]reactNodeCap, len(rw.Nodes))}
		for i := range rw.Nodes {
			nw := &rw.Nodes[i]
			rc.nodes[i] = reactNodeCap{
				rng:       nw.RNG,
				sendDst:   append([]int(nil), nw.SendDst...),
				sendSeq:   append([]uint32(nil), nw.SendSeq...),
				recvSrc:   append([]int(nil), nw.RecvSrc...),
				recvFloor: append([]uint32(nil), nw.RecvFloor...),
				recvSeen:  make([][]uint32, len(nw.RecvSeen)),
				suspDst:   append([]int(nil), nw.SuspDst...),
				suspAt:    append([]sim.Time(nil), nw.SuspAt...),
			}
			for j, s := range nw.RecvSeen {
				rc.nodes[i].recvSeen[j] = append([]uint32(nil), s...)
			}
		}
		if err := rc.validate(); err != nil {
			return nil, err
		}
		st.react = rc
	}
	for n := range w.Inboxes {
		iw := &w.Inboxes[n]
		if len(iw.Tags) != len(iw.Queues) {
			return nil, fmt.Errorf("mesh: wire inbox %d has %d tags but %d queues", n, len(iw.Tags), len(iw.Queues))
		}
		is := inboxState{tags: append([]int(nil), iw.Tags...), queues: make([][]Msg, len(iw.Queues))}
		for i, mq := range iw.Queues {
			q := make([]Msg, len(mq))
			for j, m := range mq {
				q[j] = Msg{Src: m.Src, Dst: m.Dst, Size: m.Size, Kind: m.Kind, Tag: m.Tag, Payload: m.Payload}
			}
			is.queues[i] = q
		}
		st.inboxes[n] = is
	}
	return st, nil
}
