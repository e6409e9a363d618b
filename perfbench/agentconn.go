package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// round is one poll round as the agent saw it: the poll finished
// arriving, the agent wrote its batch, the backend's ack began to
// arrive. Before is how many of the agent's reports the backend had
// acked when the batch was written, so the round's own count is the
// next round's Before minus this one's.
type round struct {
	PollAt, WriteAt, AckAt time.Time
	Before                 int
}

// roundConn wraps the agent's end of a tunnel connection (the net.Conn
// handed to Agent.ServeConn) and times the harvest protocol from the
// outside. Tunnel frames are a 4-byte length and a body, so frame
// boundaries show in the ciphertext without decrypting. After the
// agent's hello every frame it writes is a batch, and the frames it
// reads alternate poll, ack, poll, ack — the poller acks every batch,
// empty ones too.
type roundConn struct {
	net.Conn
	acked func() int // cumulative reports of this agent the backend acked

	mu       sync.Mutex
	hdr      [4]byte
	hdrN     int
	bodyLeft int
	frames   int
	start    time.Time // first byte of the frame being read
	pollAt   time.Time
	writes   int
	rounds   []round
}

func newRoundConn(c net.Conn, acked func() int) *roundConn {
	return &roundConn{Conn: c, acked: acked}
}

func (c *roundConn) Write(b []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	if c.writes > 0 {
		c.rounds = append(c.rounds, round{PollAt: c.pollAt, WriteAt: now, Before: c.acked()})
	}
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *roundConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.mu.Lock()
		c.scan(b[:n], time.Now())
		c.mu.Unlock()
	}
	return n, err
}

// scan advances the frame parser over bytes that arrived at now.
func (c *roundConn) scan(b []byte, now time.Time) {
	for len(b) > 0 {
		if c.bodyLeft == 0 {
			if c.hdrN == 0 {
				c.start = now
			}
			k := copy(c.hdr[c.hdrN:], b)
			c.hdrN += k
			b = b[k:]
			if c.hdrN < len(c.hdr) {
				return
			}
			c.bodyLeft = int(binary.BigEndian.Uint32(c.hdr[:]))
			if c.bodyLeft > 0 {
				continue
			}
		} else {
			k := min(c.bodyLeft, len(b))
			c.bodyLeft -= k
			b = b[k:]
			if c.bodyLeft > 0 {
				return
			}
		}
		c.frameDone(now)
	}
}

func (c *roundConn) frameDone(now time.Time) {
	if c.frames%2 == 0 {
		c.pollAt = now
	} else if len(c.rounds) > 0 {
		c.rounds[len(c.rounds)-1].AckAt = c.start
	}
	c.frames++
	c.hdrN = 0
}

// Rounds returns the completed rounds (those whose ack arrived), each
// with its report count, given the agent's final cumulative acked count.
func (c *roundConn) Rounds(finalAcked int) (rs []round, counts []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.rounds {
		if r.AckAt.IsZero() {
			continue
		}
		after := finalAcked
		if i+1 < len(c.rounds) {
			after = c.rounds[i+1].Before
		}
		rs = append(rs, r)
		counts = append(counts, after-r.Before)
	}
	return rs, counts
}

// acks turns completed rounds into the cumulative-ack sequence the FIFO
// attribution reads.
func acks(rs []round, counts []int) []ack {
	out := make([]ack, 0, len(rs))
	for i, r := range rs {
		out = append(out, ack{At: r.AckAt, Acked: r.Before + counts[i]})
	}
	return out
}
