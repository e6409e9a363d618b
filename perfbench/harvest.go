package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/telemetry"
)

// tunnelKey is merakid's default pre-shared key (-key "42"×32).
var tunnelKey = bytes.Repeat([]byte{0x42}, 32)

// agentQueueLimit sits far above any backlog the workloads enqueue, so
// queue overflow can never drop a report silently.
const agentQueueLimit = 1 << 24

// harvestAgent is one wire-v2 telemetry agent driven by the benchmark:
// the load generator enqueues into it, merakid polls it over loopback
// TCP, and the wrapped connection times each poll round.
type harvestAgent struct {
	agent *telemetry.Agent
	spans *Spans

	mu      sync.Mutex // orders enqueues against acked-count reads
	enq     int
	due     []time.Time
	reports []*telemetry.Report

	conn *roundConn
	wg   sync.WaitGroup
}

func newHarvestAgent(i int, spans *Spans) *harvestAgent {
	a := telemetry.NewAgent(fmt.Sprintf("perfbench-agent-%d", i), tunnelKey)
	a.Wire = telemetry.WireV2
	a.QueueLimit = agentQueueLimit
	a.Timeout = time.Minute
	return &harvestAgent{agent: a, spans: spans}
}

// enqueue hands r to the agent; due is when the schedule wanted it sent.
func (h *harvestAgent) enqueue(r *telemetry.Report, due time.Time) {
	sp := h.spans.Start("agent.enqueue", 0)
	h.mu.Lock()
	h.agent.Enqueue(r)
	h.enq++
	h.due = append(h.due, due)
	h.reports = append(h.reports, r)
	h.mu.Unlock()
	sp.End()
}

// acked is how many enqueued reports the backend has acked so far
// (the agent drops a batch from its queue when the ack arrives).
func (h *harvestAgent) acked() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.enq - h.agent.QueueLen()
}

// connect dials merakid's device port and serves polls until stop.
func (h *harvestAgent) connect(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	h.serve(c)
	return nil
}

// serve runs the agent protocol over c, wrapped to time each round,
// until stop. The session's end is the point, so its error is dropped.
func (h *harvestAgent) serve(c net.Conn) {
	h.conn = newRoundConn(c, h.acked)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = h.agent.ServeConn(h.conn)
	}()
}

// stop closes the session and waits for ServeConn to return.
func (h *harvestAgent) stop() {
	if h.conn != nil {
		h.conn.Close()
	}
	h.wg.Wait()
}

// waitDrained polls until every agent's queue is acked or the deadline
// passes; it reports whether all drained.
func waitDrained(agents []*harvestAgent, deadline time.Time) bool {
	for {
		done := true
		for _, h := range agents {
			if h.acked() < h.enq {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// roundStats gathers every agent's completed poll rounds: ack latency
// of the rounds that carried reports, the reports per round, and the
// last ack's arrival.
type roundStats struct {
	ackMS    []float64
	perRound []float64
	lastAck  time.Time
}

func collectRounds(agents []*harvestAgent, spans *Spans) roundStats {
	var rs roundStats
	for _, h := range agents {
		rounds, counts := h.conn.Rounds(h.acked())
		for i, r := range rounds {
			if spans != nil {
				id := spans.Add("harvest.round", 0, 0, r.PollAt, r.AckAt)
				spans.Add("agent.batch_build", 0, id, r.PollAt, r.WriteAt)
				spans.Add("agent.ack_wait", 0, id, r.WriteAt, r.AckAt)
			}
			if counts[i] == 0 {
				continue
			}
			rs.ackMS = append(rs.ackMS, ms(r.AckAt.Sub(r.WriteAt)))
			rs.perRound = append(rs.perRound, float64(counts[i]))
			if r.AckAt.After(rs.lastAck) {
				rs.lastAck = r.AckAt
			}
		}
	}
	return rs
}

// referenceDigest ingests every agent's reports, in the order each
// agent enqueued them, into a fresh in-process store and returns the
// store and its digest: what merakid must hold after a loss-free,
// duplicate-free harvest of the same stream.
func referenceDigest(agents []*harvestAgent) (*backend.Store, string) {
	st := backend.NewStore()
	for _, h := range agents {
		for _, r := range h.reports {
			st.Ingest(r)
		}
	}
	return st, st.Digest()
}

// checkHarvest verifies a finished harvest against the daemon: every
// report acked, none dropped by an agent, none counted twice, and the
// daemon's store digest equal to want. It returns the failures found.
func checkHarvest(d *merakid, agents []*harvestAgent, want string) []string {
	var fails []string
	total := 0
	for i, h := range agents {
		total += h.enq
		if n := h.agent.Dropped(); n != 0 {
			fails = append(fails, fmt.Sprintf("agent %d dropped %d reports", i, n))
		}
		if got := h.acked(); got != h.enq {
			fails = append(fails, fmt.Sprintf("agent %d: %d of %d reports acked", i, got, h.enq))
		}
	}
	status, err := queryOK(d.Query, "status", 30*time.Second)
	if err != nil {
		return append(fails, "status: "+err.Error())
	}
	if dup, ok := statusField(status, "duplicates"); !ok || dup != 0 {
		fails = append(fails, fmt.Sprintf("status duplicates=%d (parsed %t)", dup, ok))
	}
	if ing, ok := statusField(status, "ingested"); !ok || ing != int64(total) {
		fails = append(fails, fmt.Sprintf("status ingested=%d, want %d", ing, total))
	}
	dig, err := queryOK(d.Query, "digest", time.Minute)
	if err != nil {
		return append(fails, "digest: "+err.Error())
	}
	if len(dig) != 1 || dig[0] != want {
		fails = append(fails, fmt.Sprintf("digest %v, want %s", dig, want))
	}
	return fails
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
