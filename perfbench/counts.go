package main

import (
	"fmt"

	"diva"
)

// Message kinds as the simulator assigns them: 0 is the hand-optimized
// programs' inbox, 1–2 the barrier, 16–254 the data management strategy,
// 255 the reactive transport's ack.
const (
	kindBarrierLo  = 1
	kindBarrierHi  = 2
	kindProtocolLo = 16
	kindProtocolHi = 254
)

// counts is the work one run did, read from the machine's exported
// counters after Workload.Run. Every field repeats exactly for a given
// spec, so a change between passes is a failure, not noise.
type counts struct {
	Events             uint64 `json:"events"`
	FusedDeliveries    uint64 `json:"fused_deliveries"`
	TwoStageDeliveries uint64 `json:"two_stage_deliveries"`
	FusedBusyRecv      uint64 `json:"fused_busy_recv"`
	Sends              uint64 `json:"sends"`
	SendBytes          uint64 `json:"send_bytes"`
	LinkHops           uint64 `json:"link_hops"`
	LinkBytes          uint64 `json:"link_bytes"`
	AppMsgs            uint64 `json:"app_msgs"`
	BarrierMsgs        uint64 `json:"barrier_msgs"`
	ProtocolMsgs       uint64 `json:"protocol_msgs"`
	ProtocolBytes      uint64 `json:"protocol_bytes"`
	AckMsgs            uint64 `json:"ack_msgs"`
	Retransmits        uint64 `json:"retransmits"`
	DupDrops           uint64 `json:"dup_drops"`
	FalseTimeouts      uint64 `json:"false_timeouts"`
	Rerouted           uint64 `json:"rerouted"`
	Detected           uint64 `json:"detected"`
	Failovers          uint64 `json:"failovers"`
	Reissues           uint64 `json:"reissues"`
}

// outcome is the simulated result of one run: what the output gate
// compares across passes, against a direct run, and against the values
// committed for the default seed.
type outcome struct {
	Fingerprint string          `json:"fingerprint"`
	ElapsedUS   float64         `json:"elapsed_us"`
	Congestion  diva.Congestion `json:"congestion"`
	Verified    bool            `json:"verified"`
	Counts      counts          `json:"counts"`
}

// capture reads the outcome of a finished run on m.
func capture(m *diva.Machine, res diva.Result) outcome {
	var c counts
	st := m.K.Stat
	c.Events, c.FusedDeliveries = st.Events, st.FusedDeliveries
	c.TwoStageDeliveries, c.FusedBusyRecv = st.TwoStageDeliveries, st.FusedBusyRecv
	msgs, bytes := m.Net.SendStats()
	for k := range msgs {
		c.Sends += msgs[k]
		c.SendBytes += bytes[k]
		switch {
		case k == 0:
			c.AppMsgs += msgs[k]
		case k >= kindBarrierLo && k <= kindBarrierHi:
			c.BarrierMsgs += msgs[k]
		case k >= kindProtocolLo && k <= kindProtocolHi:
			c.ProtocolMsgs += msgs[k]
			c.ProtocolBytes += bytes[k]
		}
	}
	cong := m.Net.Congestion(nil)
	c.LinkHops, c.LinkBytes = cong.TotalMsgs, cong.TotalBytes
	fs := m.Net.FaultStats()
	c.AckMsgs, c.Retransmits, c.DupDrops = fs.AckMsgs, fs.Retransmits, fs.DupDrops
	c.FalseTimeouts, c.Rerouted, c.Detected = fs.FalseTimeouts, fs.Rerouted, fs.Detected
	c.Failovers, c.Reissues = fs.Failovers, fs.Reissues
	return outcome{
		Fingerprint: fmt.Sprintf("0x%016x", m.K.Fingerprint()),
		ElapsedUS:   res.ElapsedUS,
		Congestion:  cong,
		Verified:    res.Verified,
		Counts:      c,
	}
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.FusedDeliveries += o.FusedDeliveries
	c.TwoStageDeliveries += o.TwoStageDeliveries
	c.FusedBusyRecv += o.FusedBusyRecv
	c.Sends += o.Sends
	c.SendBytes += o.SendBytes
	c.LinkHops += o.LinkHops
	c.LinkBytes += o.LinkBytes
	c.AppMsgs += o.AppMsgs
	c.BarrierMsgs += o.BarrierMsgs
	c.ProtocolMsgs += o.ProtocolMsgs
	c.ProtocolBytes += o.ProtocolBytes
	c.AckMsgs += o.AckMsgs
	c.Retransmits += o.Retransmits
	c.DupDrops += o.DupDrops
	c.FalseTimeouts += o.FalseTimeouts
	c.Rerouted += o.Rerouted
	c.Detected += o.Detected
	c.Failovers += o.Failovers
	c.Reissues += o.Reissues
}

// same reports why got differs from want, or "" when they are equal. The
// verified flag is compared only where the job asked for a check.
func (want outcome) same(got outcome) string {
	switch {
	case got.Fingerprint != want.Fingerprint:
		return fmt.Sprintf("fingerprint %s, want %s", got.Fingerprint, want.Fingerprint)
	case got.ElapsedUS != want.ElapsedUS:
		return fmt.Sprintf("elapsed %v us, want %v", got.ElapsedUS, want.ElapsedUS)
	case got.Congestion != want.Congestion:
		return fmt.Sprintf("congestion %+v, want %+v", got.Congestion, want.Congestion)
	case got.Verified != want.Verified:
		return fmt.Sprintf("verified %v, want %v", got.Verified, want.Verified)
	case got.Counts != want.Counts:
		return fmt.Sprintf("counts %+v, want %+v", got.Counts, want.Counts)
	}
	return ""
}
