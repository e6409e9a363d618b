package fleettest

import (
	"bytes"
	"fmt"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// key is merakid's default -key: 32 bytes of 0x42.
var key = bytes.Repeat([]byte{0x42}, 32)

// Spec is the shape of a test fleet: Networks networks with IDs 100,
// 101, …, each with APs access points, each AP streaming Reports
// reports.
type Spec struct {
	Networks, APs, Reports int
}

// serial is the device serial of AP ap in network net. Its middle
// field is the network ID, as backend.NetworkOfSerial reads it.
func serial(net uint64, ap int) string { return fmt.Sprintf("Q2CL-%03d-%d", net, ap) }

// stream is one AP's deterministic report stream. Report i carries one
// client whose MAC embeds (net, ap, i), so no two APs share a client
// and what a daemon ends up holding does not depend on how its polls
// interleaved the APs.
func (s Spec) stream(net uint64, ap int) []*telemetry.Report {
	out := make([]*telemetry.Report, s.Reports)
	for i := range out {
		out[i] = &telemetry.Report{
			Serial:    serial(net, ap),
			Timestamp: uint64(1700000000 + i),
			Clients: []telemetry.ClientRecord{{
				MAC:  dot11.MAC{0x02, 0xc7, byte(net), byte(ap), byte(i >> 8), byte(i)},
				Band: dot11.Band5,
				Apps: []telemetry.AppUsageRecord{{
					App: "YouTube", UpBytes: uint64(i), DownBytes: uint64(i) * 11, Flows: 1,
				}},
			}},
		}
	}
	return out
}

// ControlDigest is what a fleet's daemons must hold between them once
// it drains: every stream ingested into one in-process store with the
// sequence numbers Agent.Enqueue stamps (1-based per agent).
func (s Spec) ControlDigest() string {
	st := backend.NewStore()
	for n := 0; n < s.Networks; n++ {
		for ap := 0; ap < s.APs; ap++ {
			for i, r := range s.stream(uint64(100+n), ap) {
				r.SeqNo = uint64(i + 1)
				st.Ingest(r)
			}
		}
	}
	return st.Digest()
}

// Fleet is one agent per AP of a Spec. Even-numbered agents speak wire
// v2 and odd ones v1, so both codecs cross every daemon and its WAL.
type Fleet struct {
	Agents []*telemetry.Agent
	// Nets[i] is Agents[i]'s network ID.
	Nets []uint64

	spec    Spec
	streams [][]*telemetry.Report
	queued  int
}

// NewFleet builds the agents of spec and queues the first n reports of
// each AP's stream.
func NewFleet(spec Spec, n int) *Fleet {
	f := &Fleet{spec: spec, queued: n}
	for net := uint64(100); net < uint64(100+spec.Networks); net++ {
		for ap := 0; ap < spec.APs; ap++ {
			a := telemetry.NewAgent(serial(net, ap), key)
			if len(f.Agents)%2 == 0 {
				a.Wire = telemetry.WireV2
			}
			a.Timeout = 2 * time.Second
			a.BackoffBase = 20 * time.Millisecond
			a.BackoffMax = 200 * time.Millisecond
			st := spec.stream(net, ap)
			for _, r := range st[:n] {
				a.Enqueue(r)
			}
			f.Agents = append(f.Agents, a)
			f.Nets = append(f.Nets, net)
			f.streams = append(f.streams, st)
		}
	}
	return f
}

// EnqueueRest queues the part of each stream NewFleet held back.
func (f *Fleet) EnqueueRest() {
	for i, a := range f.Agents {
		for _, r := range f.streams[i][f.queued:] {
			a.Enqueue(r)
		}
	}
	f.queued = f.spec.Reports
}

// Run starts every agent's reconnect loop against the device address
// addr gives for its network; the loops end when stop closes.
func (f *Fleet) Run(addr func(net uint64) string, stop <-chan struct{}) {
	for i, a := range f.Agents {
		go a.RunWithReconnect(addr(f.Nets[i]), stop)
	}
}

// Drain waits until every agent's queue is empty — every report acked,
// and merakid acks only after its WAL append and ingest — or fails
// once deadline passes.
func (f *Fleet) Drain(deadline time.Time) error {
	for {
		left := 0
		for _, a := range f.Agents {
			left += a.QueueLen()
		}
		if left == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not drain: %d reports still queued", left)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
