package main

import (
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
	}{
		{5, 100},   // nothing supported: the maximum
		{19, 100},  // p75 needs 40 samples
		{40, 75},   // 10 beyond p75
		{99, 75},   // p90 needs 100
		{100, 90},  // exactly 10 beyond p90
		{200, 95},  // exactly 10 beyond p95
		{999, 95},  // p99 needs 1000
		{1000, 99}, // exactly 10 beyond p99
		{9999, 99}, // p99.9 needs 10000
		{10000, 99.9},
		{40000, 99.9},
	}
	for _, c := range cases {
		got := tail(seq(c.n))
		if got.P != c.wantP || got.N != c.n {
			t.Errorf("n=%d: tail picks p%g of %d, want p%g of %d", c.n, got.P, got.N, c.wantP, c.n)
		}
		if beyond := float64(c.n) * (1 - got.P/100); got.P < 100 && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: p%g has %.1f samples beyond, want >= %d", c.n, got.P, beyond, minBeyond)
		}
	}
	if got := tail(seq(5)); got.Value != 5 || got.Label() != "max" {
		t.Errorf("small sample: %+v (%s), want the maximum 5", got, got.Label())
	}
	if got := tail(seq(1000)); math.Abs(got.Value-990.01) > 1e-9 || got.Label() != "p99" {
		t.Errorf("p99 of 1..1000 = %v (%s), want 990.01", got.Value, got.Label())
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

func TestScheduleDueAndLate(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, rate: 2000}
	if got := s.due(0); !got.Equal(t0) {
		t.Errorf("due(0) = %v, want start", got)
	}
	if got := s.due(2000).Sub(t0); got != time.Second {
		t.Errorf("due(2000) is %v after start, want 1s", got)
	}
	if got := s.due(3).Sub(t0); got != 1500*time.Microsecond {
		t.Errorf("due(3) is %v after start, want 1.5ms", got)
	}
	// Sent early or on time: not late. Sent after due: late by the gap,
	// and a stall makes every report due during it late (open loop).
	if got := s.late(10, s.due(10).Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send counted late by %v", got)
	}
	stall := s.due(100).Add(50 * time.Millisecond)
	for k := 100; k < 200; k++ {
		want := stall.Sub(s.due(k))
		if want < 0 {
			want = 0
		}
		if got := s.late(k, stall); got != want {
			t.Fatalf("report %d sent at stall end: late %v, want %v", k, got, want)
		}
	}
	if got := s.late(100, stall); got != 50*time.Millisecond {
		t.Errorf("late = %v, want 50ms", got)
	}
}

func TestAttributeFIFO(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	due := []time.Time{at(0), at(1), at(2), at(3), at(4), at(5)}
	acks := []ack{
		{At: at(10), Acked: 2}, // covers reports 0, 1
		{At: at(12), Acked: 2}, // an empty round covers nothing new
		{At: at(20), Acked: 5}, // covers 2, 3, 4
	}
	got, undelivered := attribute(due, acks)
	want := []time.Duration{10, 9, 18, 17, 16}
	if len(got) != len(want) || undelivered != 1 {
		t.Fatalf("got %v with %d undelivered, want %v with 1", got, undelivered, want)
	}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("report %d delivered after %v, want %vms", i, got[i], want[i])
		}
	}
	// An ack claiming more than was queued cannot over-attribute.
	got, undelivered = attribute(due[:2], []ack{{At: at(10), Acked: 9}})
	if len(got) != 2 || undelivered != 0 {
		t.Errorf("over-ack: %v, %d undelivered", got, undelivered)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "round", StartNS: 0, EndNS: 100 * ms},
		// Two concurrent children overlap on [20,40]; one runs past the
		// parent's end and is clipped to it.
		{ID: 2, Parent: 1, Name: "a", StartNS: 10 * ms, EndNS: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20 * ms, EndNS: 50 * ms},
		{ID: 4, Parent: 1, Name: "a", StartNS: 90 * ms, EndNS: 120 * ms},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 3, Name: "c", StartNS: 25 * ms, EndNS: 30 * ms},
	}
	byName := map[string]SelfTime{}
	for _, st := range selfTimes(spans) {
		byName[st.Name] = st
	}
	// round: 100 - union([10,50],[90,100]) = 100 - 50 = 50.
	if got := byName["round"].Self; got != 50*time.Millisecond {
		t.Errorf("round self = %v, want 50ms", got)
	}
	if got := byName["b"].Self; got != 25*time.Millisecond {
		t.Errorf("b self = %v, want 25ms", got)
	}
	if st := byName["a"]; st.Count != 2 || st.Self != 60*time.Millisecond || st.Total != 60*time.Millisecond {
		t.Errorf("a = %+v, want 2 spans, 60ms total and self", st)
	}
}

// frame is one tunnel frame as it crosses the wire.
func frame(body int) []byte {
	b := make([]byte, 4+body)
	binary.BigEndian.PutUint32(b, uint32(body))
	return b
}

func TestRoundConnTimesRounds(t *testing.T) {
	agentEnd, peer := net.Pipe()
	defer peer.Close()
	acked := 0
	rc := newRoundConn(agentEnd, func() int { return acked })
	read := func(b []byte) {
		// Deliver a frame in awkward pieces: header split, body split.
		go func() {
			for i := 0; i < len(b); i += 3 {
				peer.Write(b[i:min(i+3, len(b))])
			}
		}()
		buf := make([]byte, len(b))
		for n := 0; n < len(buf); {
			k, err := rc.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += k
		}
	}
	write := func() {
		go func() { peer.Read(make([]byte, 64)) }()
		if _, err := rc.Write([]byte("batch")); err != nil {
			t.Fatal(err)
		}
	}
	write()         // hello
	read(frame(10)) // poll 1
	write()         // batch 1
	read(frame(1))  // ack 1
	acked = 7       // the agent drops what ack 1 covered
	read(frame(10)) // poll 2
	write()         // batch 2
	read(frame(1))  // ack 2
	rs, counts := rc.Rounds(12)
	if len(rs) != 2 || counts[0] != 7 || counts[1] != 5 {
		t.Fatalf("rounds %d with counts %v, want 2 with [7 5]", len(rs), counts)
	}
	for i, r := range rs {
		if r.PollAt.IsZero() || r.WriteAt.Before(r.PollAt) || r.AckAt.Before(r.WriteAt) {
			t.Errorf("round %d out of order: %+v", i, r)
		}
	}
	as := acks(rs, counts)
	if as[0].Acked != 7 || as[1].Acked != 12 {
		t.Errorf("cumulative acks %+v, want 7 then 12", as)
	}
}
