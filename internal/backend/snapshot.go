package backend

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// This file is the binary field encoding behind every whole-store
// read: the snapshot stream Save writes and Load reads, and the
// canonical dump Digest hashes (digest.go). Fields travel untagged in a
// fixed order, in the style of wire v2: integers as uvarints (signed
// ones zigzag varints), float64s as their 8 little-endian IEEE-754 bytes,
// MACs as their 6 raw bytes, and strings and byte blobs behind a uvarint
// length. Every repeated field opens with a uvarint element count. The
// layout is defined in DESIGN.md §7.
//
// The stream is flat — stripes are a memory layout, not part of the
// format — so a snapshot round-trips across shard counts. Map-valued fields are
// written in map order (a snapshot's bytes are not canonical; its
// digest is), and slice-valued fields in memory order.

// snapMagic opens every binary snapshot and snapEnd closes it. A gob
// stream opens with a message length, which is either below 0x80 or a
// negated byte count in 0xf8–0xff, so no gob stream starts with 0xb7:
// Load tells the two formats apart by the first bytes.
const (
	snapMagic = "\xb7WLS"
	snapEnd   = "\xb7END"
)

var (
	errSnapShort    = errors.New("backend: snapshot truncated")
	errSnapCount    = errors.New("backend: snapshot element count exceeds remaining bytes")
	errSnapEnd      = errors.New("backend: snapshot end marker missing")
	errSnapTrailing = errors.New("backend: trailing bytes after snapshot")
)

// Minimum encoded sizes, in bytes, of the repeated elements: a decoded
// count is refused unless count × minimum fits in what remains, so no
// input can make the decoder allocate more than a small multiple of its
// own length.
const (
	minString   = 1                   // uvarint length
	minApp      = minString + 3       // name, up, down, flows
	minClient   = 6 + 4 + 4           // MAC, band, rssi, caps flags, streams, 4 counts
	minSeries   = minString + 1       // serial, element count
	minRadio    = 3 + 3*8             // timestamp, band, channel, 3 float64s
	minScan     = 3 + 2*8             // timestamp, band, channel, 2 float64s
	minCrash    = 2 + minString + 3   // timestamp, kind, firmware, pc, free, neighbors
	minNeighbor = 6 + 2*minString + 3 // BSSID, SSID, vendor, band, channel, rssi
	minLink     = minString + 6 + 3   // from, to, band, 2 counts
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBlob(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendApp(b []byte, a *telemetry.AppUsageRecord) []byte {
	b = appendString(b, a.App)
	b = binary.AppendUvarint(b, a.UpBytes)
	b = binary.AppendUvarint(b, a.DownBytes)
	return binary.AppendUvarint(b, uint64(a.Flows))
}

func appendRadio(b []byte, rs []RadioSample) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = binary.AppendUvarint(b, r.Timestamp)
		b = binary.AppendUvarint(b, uint64(r.Band))
		b = binary.AppendVarint(b, int64(r.Channel))
		b = appendF64(b, r.Busy)
		b = appendF64(b, r.Decodable)
		b = appendF64(b, r.Tx)
	}
	return b
}

func appendScans(b []byte, ps []ScanPoint) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = binary.AppendUvarint(b, p.Timestamp)
		b = binary.AppendUvarint(b, uint64(p.Band))
		b = binary.AppendVarint(b, int64(p.Channel))
		b = appendF64(b, p.Busy)
		b = appendF64(b, p.Decodable)
	}
	return b
}

func appendCrashes(b []byte, cs []telemetry.CrashRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = binary.AppendUvarint(b, c.Timestamp)
		b = binary.AppendUvarint(b, uint64(c.Kind))
		b = appendString(b, c.Firmware)
		b = binary.AppendUvarint(b, c.PC)
		b = binary.AppendUvarint(b, uint64(c.FreeKB))
		b = binary.AppendUvarint(b, uint64(c.NeighborCount))
	}
	return b
}

func appendNeighbor(b []byte, n NeighborEntry) []byte {
	b = append(b, n.BSSID[:]...)
	b = appendString(b, n.SSID)
	b = binary.AppendUvarint(b, uint64(n.Band))
	b = binary.AppendVarint(b, int64(n.Channel))
	b = binary.AppendVarint(b, int64(n.RSSIdB))
	return appendString(b, n.Vendor)
}

func appendLink(b []byte, l *LinkSeries) []byte {
	b = appendString(b, l.Key.From)
	b = append(b, l.Key.To[:]...)
	b = binary.AppendUvarint(b, uint64(l.Key.Band))
	for _, xs := range [2][]uint32{l.Sent, l.Deliver} {
		b = binary.AppendUvarint(b, uint64(len(xs)))
		for _, x := range xs {
			b = binary.AppendUvarint(b, uint64(x))
		}
	}
	return b
}

// Capability flag bits of the snapshot's client record. The snapshot
// keeps Capabilities exactly as stored (Digest hashes the normalized
// 2-byte IE form instead).
const (
	capG = 1 << iota
	capN
	capAC
	cap5GHz
	capW40
	capW80
)

func appendCaps(b []byte, c dot11.Capabilities) []byte {
	var f byte
	for i, on := range [...]bool{c.G, c.N, c.AC, c.FiveGHz, c.Width40, c.Width80} {
		if on {
			f |= 1 << i
		}
	}
	b = append(b, f)
	return binary.AppendVarint(b, int64(c.Streams))
}

// chunkSize is how many encoded bytes a chunker gathers before it
// spills them to its sink.
const chunkSize = 64 << 10

// chunker gathers encoded bytes and spills them in chunks to sink,
// which consumes a full buffer and returns the one to continue in.
// Encoders append to b and call spill between elements, so a large
// store never regrows (and recopies) one huge slice.
type chunker struct {
	b    []byte
	sink func([]byte) []byte
}

func (c *chunker) spill() {
	if len(c.b) >= chunkSize {
		c.b = c.sink(c.b)
	}
}

// encodeSnapshotLocked encodes the whole store as one binary snapshot.
// The caller holds every stripe lock (lockAll).
func (s *Store) encodeSnapshotLocked(c *chunker) {
	c.b = append(c.b, snapMagic...)

	n := 0
	for _, cs := range s.clientShards {
		n += len(cs.clients)
	}
	c.b = binary.AppendUvarint(c.b, uint64(n))
	for _, cs := range s.clientShards {
		for _, a := range cs.clients {
			b := append(c.b, a.MAC[:]...)
			b = binary.AppendUvarint(b, uint64(a.Band))
			b = binary.AppendVarint(b, int64(a.RSSIdB))
			b = appendCaps(b, a.Caps)
			b = binary.AppendUvarint(b, uint64(len(a.Apps)))
			for _, app := range a.Apps {
				b = appendApp(b, app)
			}
			b = binary.AppendUvarint(b, uint64(len(a.UserAgents)))
			for _, ua := range a.UserAgents {
				b = appendString(b, ua)
			}
			b = binary.AppendUvarint(b, uint64(len(a.DHCPFingerprints)))
			for _, fp := range a.DHCPFingerprints {
				b = appendBlob(b, fp)
			}
			b = binary.AppendUvarint(b, uint64(len(a.APs)))
			for serial := range a.APs {
				b = appendString(b, serial)
			}
			c.b = b
			c.spill()
		}
	}

	appendSerialMap(c, s.deviceShards, func(ds *deviceShard) map[string]uint64 { return ds.seen }, binary.AppendUvarint)
	appendSerialMap(c, s.deviceShards, func(ds *deviceShard) map[string][]RadioSample { return ds.radio }, appendRadio)
	appendSerialMap(c, s.deviceShards, func(ds *deviceShard) map[string][]ScanPoint { return ds.scans }, appendScans)
	appendSerialMap(c, s.deviceShards, func(ds *deviceShard) map[string][]telemetry.CrashRecord { return ds.crashes }, appendCrashes)
	appendSerialMap(c, s.deviceShards, func(ds *deviceShard) map[string]map[dot11.BSSID]NeighborEntry { return ds.neighbors },
		func(b []byte, m map[dot11.BSSID]NeighborEntry) []byte {
			b = binary.AppendUvarint(b, uint64(len(m)))
			for _, e := range m {
				b = appendNeighbor(b, e)
			}
			return b
		})
	n = 0
	for _, ds := range s.deviceShards {
		n += len(ds.links)
	}
	c.b = binary.AppendUvarint(c.b, uint64(n))
	for _, ds := range s.deviceShards {
		for _, l := range ds.links {
			c.b = appendLink(c.b, l)
			c.spill()
		}
	}

	s.migMu.Lock()
	c.b = binary.AppendUvarint(c.b, uint64(len(s.absorbed)))
	for tok := range s.absorbed {
		c.b = appendString(c.b, tok)
	}
	c.b = binary.AppendUvarint(c.b, uint64(len(s.parted)))
	for id := range s.parted {
		c.b = binary.AppendUvarint(c.b, id)
	}
	s.migMu.Unlock()
	c.b = append(c.b, snapEnd...)
}

// appendSerialMap encodes one serial-keyed device map, gathered across
// the stripes: a count, then (serial, value) pairs.
func appendSerialMap[V any](c *chunker, shards []*deviceShard, pick func(*deviceShard) map[string]V, enc func([]byte, V) []byte) {
	n := 0
	for _, ds := range shards {
		n += len(pick(ds))
	}
	c.b = binary.AppendUvarint(c.b, uint64(n))
	for _, ds := range shards {
		for serial, v := range pick(ds) {
			c.b = enc(appendString(c.b, serial), v)
			c.spill()
		}
	}
}

// snapReader decodes a binary snapshot. The first failure sticks in
// err and turns every later read into a zero-value no-op, so decode
// loops stay straight-line and stop at their next condition check.
type snapReader struct {
	b   []byte
	err error
	// strs interns decoded strings: app names, user agents and serials
	// repeat across thousands of clients and are stored once.
	strs map[string]string
}

func (r *snapReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errSnapShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errSnapShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an element count and refuses it unless that many
// elements of at least elemSize bytes each fit in the remaining input.
func (r *snapReader) count(elemSize int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/elemSize) {
		r.fail(errSnapCount)
		return 0
	}
	return int(v)
}

func (r *snapReader) raw(n int) []byte {
	if len(r.b) < n {
		r.fail(errSnapShort)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *snapReader) blob() []byte {
	return r.raw(r.count(1))
}

func (r *snapReader) str() string {
	p := r.blob()
	if s, ok := r.strs[string(p)]; ok {
		return s
	}
	s := string(p)
	r.strs[s] = s
	return s
}

func (r *snapReader) f64() float64 {
	p := r.raw(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (r *snapReader) mac() (m dot11.MAC) {
	copy(m[:], r.raw(len(m)))
	return m
}

func (r *snapReader) caps() dot11.Capabilities {
	f := r.raw(1)
	if f == nil {
		return dot11.Capabilities{}
	}
	return dot11.Capabilities{
		G: f[0]&capG != 0, N: f[0]&capN != 0, AC: f[0]&capAC != 0,
		FiveGHz: f[0]&cap5GHz != 0, Width40: f[0]&capW40 != 0, Width80: f[0]&capW80 != 0,
		Streams: int(r.varint()),
	}
}

func (r *snapReader) client() *ClientAggregate {
	c := &ClientAggregate{
		MAC:    r.mac(),
		Band:   dot11.Band(r.uvarint()),
		RSSIdB: int32(r.varint()),
		Caps:   r.caps(),
	}
	n := r.count(minApp)
	c.Apps = make(map[string]*telemetry.AppUsageRecord, n)
	recs := make([]telemetry.AppUsageRecord, n) // one allocation for the client's records
	for i := range recs {
		a := &recs[i]
		*a = telemetry.AppUsageRecord{App: r.str(), UpBytes: r.uvarint(), DownBytes: r.uvarint(), Flows: uint32(r.uvarint())}
		c.Apps[a.App] = a
	}
	if n = r.count(minString); n > 0 {
		c.UserAgents = make([]string, n)
		for i := range c.UserAgents {
			c.UserAgents[i] = r.str()
		}
	}
	if n = r.count(minString); n > 0 {
		c.DHCPFingerprints = make([][]byte, n)
		for i := range c.DHCPFingerprints {
			c.DHCPFingerprints[i] = bytes.Clone(r.blob())
		}
	}
	n = r.count(minString)
	c.APs = make(map[string]bool, n)
	for i := 0; i < n && r.err == nil; i++ {
		c.APs[r.str()] = true
	}
	return c
}

func (r *snapReader) radio() []RadioSample {
	out := make([]RadioSample, r.count(minRadio))
	for i := range out {
		out[i] = RadioSample{Timestamp: r.uvarint(), Band: dot11.Band(r.uvarint()), Channel: int(r.varint()),
			Busy: r.f64(), Decodable: r.f64(), Tx: r.f64()}
	}
	return out
}

func (r *snapReader) scans() []ScanPoint {
	out := make([]ScanPoint, r.count(minScan))
	for i := range out {
		out[i] = ScanPoint{Timestamp: r.uvarint(), Band: dot11.Band(r.uvarint()), Channel: int(r.varint()),
			Busy: r.f64(), Decodable: r.f64()}
	}
	return out
}

func (r *snapReader) crashes() []telemetry.CrashRecord {
	out := make([]telemetry.CrashRecord, r.count(minCrash))
	for i := range out {
		out[i] = telemetry.CrashRecord{Timestamp: r.uvarint(), Kind: uint8(r.uvarint()), Firmware: r.str(),
			PC: r.uvarint(), FreeKB: uint32(r.uvarint()), NeighborCount: uint32(r.uvarint())}
	}
	return out
}

func (r *snapReader) neighbors() map[dot11.BSSID]NeighborEntry {
	n := r.count(minNeighbor)
	m := make(map[dot11.BSSID]NeighborEntry, n)
	for i := 0; i < n && r.err == nil; i++ {
		e := NeighborEntry{BSSID: r.mac(), SSID: r.str(), Band: dot11.Band(r.uvarint()),
			Channel: int(r.varint()), RSSIdB: int32(r.varint()), Vendor: r.str()}
		m[e.BSSID] = e
	}
	return m
}

func (r *snapReader) uint32s() []uint32 {
	out := make([]uint32, r.count(1))
	for i := range out {
		out[i] = uint32(r.uvarint())
	}
	return out
}

func (r *snapReader) link() *LinkSeries {
	l := &LinkSeries{Key: LinkKey{From: r.str(), To: r.mac(), Band: dot11.Band(r.uvarint())}}
	l.Sent = r.uint32s()
	l.Deliver = r.uint32s()
	return l
}

// readSerialMap decodes one appendSerialMap section into the stripes
// of into that pick selects.
func readSerialMap[V any](r *snapReader, into *Store, pick func(*deviceShard) map[string]V, dec func(*snapReader) V) {
	n := r.count(minSeries)
	for i := 0; i < n && r.err == nil; i++ {
		serial := r.str()
		pick(into.deviceShardFor(serial))[serial] = dec(r)
	}
}

// decodeSnapshot decodes a snapshot — binary, or the legacy gob form
// earlier builds wrote — into a fresh store with s's stripe count. The
// fresh store is private to the caller, so nothing here locks.
func (s *Store) decodeSnapshot(b []byte) (*Store, error) {
	into := NewStoreShards(s.NumShards())
	if !bytes.HasPrefix(b, []byte(snapMagic)) {
		return into, into.fillLegacy(b)
	}
	r := &snapReader{b: b[len(snapMagic):], strs: make(map[string]string)}
	n := r.count(minClient)
	for i := 0; i < n && r.err == nil; i++ {
		c := r.client()
		into.clientShardFor(c.MAC).clients[c.MAC] = c
	}
	readSerialMap(r, into, func(ds *deviceShard) map[string]uint64 { return ds.seen }, (*snapReader).uvarint)
	readSerialMap(r, into, func(ds *deviceShard) map[string][]RadioSample { return ds.radio }, (*snapReader).radio)
	readSerialMap(r, into, func(ds *deviceShard) map[string][]ScanPoint { return ds.scans }, (*snapReader).scans)
	readSerialMap(r, into, func(ds *deviceShard) map[string][]telemetry.CrashRecord { return ds.crashes }, (*snapReader).crashes)
	readSerialMap(r, into, func(ds *deviceShard) map[string]map[dot11.BSSID]NeighborEntry { return ds.neighbors }, (*snapReader).neighbors)
	n = r.count(minLink)
	for i := 0; i < n && r.err == nil; i++ {
		l := r.link()
		into.deviceShardFor(l.Key.From).links[l.Key] = l
	}
	if n = r.count(minString); n > 0 {
		into.absorbed = make(map[string]bool, n)
		for i := 0; i < n && r.err == nil; i++ {
			into.absorbed[r.str()] = true
		}
	}
	if n = r.count(1); n > 0 {
		into.parted = make(map[uint64]bool, n)
		for i := 0; i < n && r.err == nil; i++ {
			into.parted[r.uvarint()] = true
		}
	}
	if r.err == nil && !bytes.Equal(r.raw(len(snapEnd)), []byte(snapEnd)) {
		r.fail(errSnapEnd)
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail(errSnapTrailing)
	}
	return into, r.err
}

// snapshot is the legacy gob form of the store, written by builds
// before the binary stream. Load still decodes it — checkpoint
// generations and WAL absorb records from before an upgrade must
// recover — but nothing encodes it any more.
type snapshot struct {
	Seen      map[string]uint64
	Clients   map[dot11.MAC]*ClientAggregate
	Links     map[LinkKey]*LinkSeries
	Radio     map[string][]RadioSample
	Scans     map[string][]ScanPoint
	Neighbors map[string]map[dot11.BSSID]NeighborEntry
	Crashes   map[string][]telemetry.CrashRecord
	Absorbed  map[string]bool
	Parted    map[uint64]bool
}

// fillLegacy decodes a legacy gob snapshot into the fresh store s.
func (s *Store) fillLegacy(b []byte) error {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return fmt.Errorf("legacy gob snapshot: %w", err)
	}
	for mac, c := range snap.Clients {
		if c.Apps == nil {
			c.Apps = make(map[string]*telemetry.AppUsageRecord)
		}
		if c.APs == nil {
			c.APs = make(map[string]bool)
		}
		s.clientShardFor(mac).clients[mac] = c
	}
	for serial, seq := range snap.Seen {
		s.deviceShardFor(serial).seen[serial] = seq
	}
	for k, v := range snap.Links {
		s.deviceShardFor(k.From).links[k] = v
	}
	for serial, v := range snap.Radio {
		s.deviceShardFor(serial).radio[serial] = v
	}
	for serial, v := range snap.Scans {
		s.deviceShardFor(serial).scans[serial] = v
	}
	for serial, v := range snap.Neighbors {
		s.deviceShardFor(serial).neighbors[serial] = v
	}
	for serial, v := range snap.Crashes {
		s.deviceShardFor(serial).crashes[serial] = v
	}
	if len(snap.Absorbed) > 0 {
		s.absorbed = snap.Absorbed
	}
	if len(snap.Parted) > 0 {
		s.parted = snap.Parted
	}
	return nil
}
