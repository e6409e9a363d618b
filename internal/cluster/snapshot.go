package cluster

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"strings"

	"wlanscale/internal/backend"
)

// snapshotLineLen is the base64 chunk width of a snapshot response.
// The query protocol is line-oriented with a blank-line terminator, so
// a binary snapshot travels as fixed-width base64 lines that any
// line-based client (and the Router) can carry without special
// framing. It is a multiple of 4, so every full line encodes exactly
// snapshotLineLen/4*3 raw bytes with no padding.
const snapshotLineLen = 4096

// WriteSnapshotLines writes s's binary snapshot (backend.Store.Save) to
// w as base64 lines — the payload of the merakid "snapshot" query. The
// store is encoded under its stripe locks, so the lines are a
// consistent point-in-time view even on a live daemon. The snapshot
// streams through a lineWriter, so the output equals the whole
// snapshot's base64 cut every snapshotLineLen characters without that
// string ever being built.
func WriteSnapshotLines(w io.Writer, s *backend.Store) error {
	lw := &lineWriter{w: w, raw: make([]byte, 0, snapshotLineLen/4*3), line: make([]byte, snapshotLineLen+1)}
	if err := s.Save(lw); err != nil {
		return err
	}
	return lw.flush()
}

// lineWriter base64-encodes everything written to it as
// snapshotLineLen-character lines: each full line encodes exactly
// snapshotLineLen/4*3 raw bytes, so only the last line carries padding.
type lineWriter struct {
	w    io.Writer
	raw  []byte // pending raw bytes, less than one line's worth
	line []byte
}

func (l *lineWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := min(len(p), cap(l.raw)-len(l.raw))
		l.raw = append(l.raw, p[:k]...)
		p = p[k:]
		if len(l.raw) == cap(l.raw) {
			if err := l.flush(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// flush writes the pending raw bytes as one line.
func (l *lineWriter) flush() error {
	if len(l.raw) == 0 {
		return nil
	}
	m := base64.StdEncoding.EncodedLen(len(l.raw))
	base64.StdEncoding.Encode(l.line, l.raw)
	l.line[m] = '\n'
	l.raw = l.raw[:0]
	_, err := l.w.Write(l.line[:m+1])
	return err
}

// DecodeSnapshotBytes reverses WriteSnapshotLines: it joins the base64
// lines of one shard's snapshot response back into the raw snapshot.
// The byte form is what a durable absorb logs to the WAL before
// applying.
func DecodeSnapshotBytes(lines []string) ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(strings.Join(lines, ""))
	if err != nil {
		return nil, fmt.Errorf("cluster: corrupt snapshot response: %v", err)
	}
	return raw, nil
}

// DecodeSnapshotLines is DecodeSnapshotBytes as a reader — the form
// Store.MergeSnapshot and Store.Load take.
func DecodeSnapshotLines(lines []string) (io.Reader, error) {
	raw, err := DecodeSnapshotBytes(lines)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(raw), nil
}
