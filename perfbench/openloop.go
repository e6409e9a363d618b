package main

import (
	"time"
)

// schedule is an open-loop arrival plan: report k is due at
// start + k/rate, whether or not the system kept up with report k-1.
type schedule struct {
	start time.Time
	rate  float64 // reports per second
}

// due returns when report k is due to be sent.
func (s schedule) due(k int) time.Time {
	return s.start.Add(time.Duration(float64(k) / s.rate * float64(time.Second)))
}

// late is how far behind schedule the generator handed report k to its
// agent; zero when it was on time.
func (s schedule) late(k int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(k)); d > 0 {
		return d
	}
	return 0
}

// ack is one acknowledgement seen by an agent: at time At the
// cumulative number of its reports the backend had acked reached Acked.
type ack struct {
	At    time.Time
	Acked int
}

// attribute assigns each report of one agent's FIFO queue the time of
// the first ack that covers it, and returns per-report delivery latency
// (ack time minus due time) for every covered report, in queue order.
// due[i] is the due time of the i-th report the agent enqueued; acks
// must be in arrival order with non-decreasing Acked. Reports no ack
// covers are undelivered: their count is returned separately.
func attribute(due []time.Time, acks []ack) (delivery []time.Duration, undelivered int) {
	i := 0
	for _, a := range acks {
		for i < len(due) && i < a.Acked {
			delivery = append(delivery, a.At.Sub(due[i]))
			i++
		}
	}
	return delivery, len(due) - i
}
